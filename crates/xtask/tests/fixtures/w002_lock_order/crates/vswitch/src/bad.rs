//! Four W002 findings. Unordered lock nesting: the second `.lock()`
//! while the first guard is live. A table re-entry under the table lock
//! `for_each` holds across its closure. An event publish inside a
//! `with_entry` closure, whose table lock guards the entry it is handed.
//! And one inside the second closure of a `with_connection` call, which
//! is handed the reverse direction's entry under the same lock.

use crate::table::FlowTable;
use acdc_telemetry::{EventKind, Telemetry};
use parking_lot::Mutex;

pub fn transfer(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock();
    let gb = b.lock();
    let _ = (ga, gb);
}

pub fn pending_reverse_entries(table: &FlowTable) -> usize {
    let mut pending = 0;
    table.for_each(|key, _| {
        let reverse = table.with_entry(&key.reverse(), |e| e.rx_pending());
        pending += usize::from(reverse == Some(true));
    });
    pending
}

pub fn close(table: &FlowTable, telemetry: &Telemetry, key: &acdc_packet::FlowKey, now: u64) {
    table.with_entry(key, |e| {
        e.closing = true;
        telemetry.record(now, *key, EventKind::FlowEvicted { reason: "closed" });
    });
}

pub fn reset_both(table: &FlowTable, telemetry: &Telemetry, key: &acdc_packet::FlowKey, now: u64) {
    table.with_connection(
        key,
        |e| e.closing = true,
        |_, reverse| {
            if let Some(r) = reverse {
                r.closing = true;
            }
            telemetry.record(now, *key, EventKind::FlowEvicted { reason: "reset" });
        },
    );
}

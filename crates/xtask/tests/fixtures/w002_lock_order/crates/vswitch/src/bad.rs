//! Two W002 findings. Unordered entry→entry lock nesting: the second
//! `.lock()` while the first guard is live. And a table re-entry under
//! the shard lock `for_each_slot` holds across its closure.

use crate::table::{FlowSlot, FlowTable};

pub fn transfer(a: &FlowSlot, b: &FlowSlot) {
    let ga = a.entry.lock();
    let gb = b.entry.lock();
    let _ = (ga, gb);
}

pub fn pending_reverse_entries(table: &FlowTable) -> usize {
    let mut pending = 0;
    table.for_each_slot(|key, _| {
        let reverse = table.with_entry(&key.reverse(), |s| s.rx_pending());
        pending += usize::from(reverse == Some(true));
    });
    pending
}

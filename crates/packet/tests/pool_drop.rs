//! What the global pool's counters say about a `Segment`'s life. One
//! test, alone in its file: a test binary of its own is the only place
//! nothing else takes from or puts to the process-wide pool, so the
//! deltas below are exact.

use acdc_packet::{Ecn, Ipv4Repr, Segment, TcpFlags, TcpRepr, PROTO_TCP};

/// A dropped `Segment` returns its storage with one `put` of the real
/// buffer: `recycled` moves by one and `discarded` not at all. Nothing
/// hands the pool an emptied husk on the side, so a consumed FACK — which
/// is exactly this drop — does not inflate `discarded`.
#[test]
fn a_dropped_segment_is_one_recycle_and_no_discard() {
    let pool = acdc_packet::pool::global();
    let ip = Ipv4Repr {
        src_addr: [10, 0, 0, 2],
        dst_addr: [10, 0, 0, 7],
        protocol: PROTO_TCP,
        ecn: Ecn::Ect0,
        payload_len: 0, // overwritten by new_tcp
        ttl: 64,
    };
    let mut tcp = TcpRepr::new(33_000, 5_001);
    tcp.flags = TcpFlags::ACK;

    let seg = Segment::new_tcp(ip, tcp, 0);
    let built = pool.stats();
    assert_eq!((built.hits, built.misses), (0, 1), "first take allocates");

    drop(seg);
    let dropped = pool.stats();
    assert_eq!(dropped.recycled, built.recycled + 1);
    assert_eq!(dropped.discarded, built.discarded);

    // The clone rents the buffer just returned; dropping both returns two.
    let seg = Segment::new_tcp(ip, TcpRepr::new(1, 2), 0);
    let copy = seg.clone();
    let cloned = pool.stats();
    assert_eq!((cloned.hits, cloned.misses), (1, 2));
    drop((seg, copy));
    let end = pool.stats();
    assert_eq!(end.recycled, dropped.recycled + 2);
    assert_eq!(end.discarded, 0);
}

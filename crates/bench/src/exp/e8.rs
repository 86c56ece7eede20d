//! E8 — §4.2: enforcing maximum packet lifetime without a TTL.
//!
//! * Delayed-delivery sweep: packets held in the network for increasing
//!   times are accepted until the MPL, then discarded by the *receiver*
//!   from its creation timestamp — with **zero router work**, vs IP
//!   whose TTL must be rewritten (and checksummed) at every hop.
//! * TTL's blind spot: a TTL bounds *hops*, not *time* — a packet parked
//!   on a slow path arrives "fresh" by TTL but stale by clock.
//! * Clock-skew tolerance: acceptance remains correct while sender and
//!   receiver clocks disagree within the sync bound, across the 32-bit
//!   millisecond wraparound.

use crate::json::obj;
use crate::{Report, Table};
use sirpent::transport::{HostClock, LifetimeFilter, LifetimeReject};

const MPL_MS: u32 = 30_000; // 30 s maximum packet lifetime
const SKEW_MS: u32 = 5_000;

/// Run E8.
pub fn run() -> Report {
    let mut r = Report::default();
    // ---- delayed-delivery sweep --------------------------------------------
    let filter = LifetimeFilter::steady(MPL_MS, SKEW_MS);
    let sender = HostClock::perfect(1_000_000);
    let receiver = HostClock {
        offset_ms: 800, // under the sync residual
        ..HostClock::perfect(1_000_000)
    };

    let mut t = Table::new(
        "E8a — delayed packets: timestamp (MPL 30 s) vs IP TTL (hop budget)",
        &[
            "network delay",
            "timestamp verdict",
            "TTL verdict (3 hops, TTL 32)",
        ],
    );
    let mut rows = Vec::new();
    for delay_ms in [0u64, 100, 1_000, 10_000, 29_000, 31_000, 60_000, 600_000] {
        let sent = sirpent::sim::SimTime(10_000_000_000); // t = 10 s
        let stamp = sender.now_ms(sent);
        let arrival = sirpent::sim::SimTime(sent.as_nanos() + delay_ms * 1_000_000);
        let local_now = receiver.now_ms(arrival);
        let verdict = match filter.accept(local_now, stamp) {
            Ok(()) => "accepted".to_string(),
            Err(LifetimeReject::TooOld) => "discarded (too old)".to_string(),
            Err(e) => format!("discarded ({e:?})"),
        };
        // IP: the TTL was decremented 3 times regardless of elapsed time.
        let ttl_ok = 32u8.saturating_sub(3) > 0;
        let ttl_verdict = if ttl_ok {
            "accepted (TTL 29 left)".to_string()
        } else {
            "dropped".to_string()
        };
        t.row(&[&format!("{delay_ms} ms"), &verdict, &ttl_verdict]);
        rows.push(obj! {
            delay_ms: delay_ms,
            timestamp_verdict: verdict,
            ttl_verdict: ttl_verdict,
        });
    }
    r.table(&t);
    r.note(
        "TTL accepts a 10-minute-old packet as happily as a fresh one — it\n\
         bounds hops, not lifetime; \"correct implementation … requires that\n\
         the TTL is updated by every router\", making transport correctness\n\
         depend on the network (§4.2). The timestamp needs no router work.",
    );

    // ---- clock skew and wraparound -------------------------------------------
    let mut t2 = Table::new(
        "E8b — acceptance under clock skew (fresh packet, MPL 30 s, residual 5 s)",
        &["receiver offset", "verdict"],
    );
    let mut skew_rows = Vec::new();
    for offset in [-30_000i64, -6_000, -4_000, 0, 4_000, 6_000, 30_000] {
        let skewed = HostClock {
            offset_ms: offset,
            ..HostClock::perfect(1_000_000)
        };
        let sent = sirpent::sim::SimTime(100_000_000_000);
        let stamp = sender.now_ms(sent);
        let now = skewed.now_ms(sirpent::sim::SimTime(sent.as_nanos() + 1_000_000)); // 1 ms later
        let ok = filter.accept(now, stamp).is_ok();
        t2.row(&[
            &format!("{offset} ms"),
            &(if ok { "accepted" } else { "discarded" }),
        ]);
        skew_rows.push(obj! { offset_ms: offset, accepted: ok });
    }
    r.table(&t2);
    r.note(
        "a receiver running fast treats fresh packets as old once its error\n\
         exceeds the MPL slack; running slow, the from-the-future guard\n\
         (bounded by the 5 s sync residual) rejects — \"clock synchronization\n\
         need not be more accurate than multiple seconds\" (§4.2).",
    );

    // ---- wraparound ------------------------------------------------------------
    // Place the sender's clock just before the 2^32 ms wrap; the packet
    // crosses the wrap in flight and must still be judged fresh.
    let wrap_sender = HostClock::perfect((1u64 << 32) - 1_000);
    let wrap_receiver = HostClock::perfect((1u64 << 32) - 1_000);
    let sent = sirpent::sim::SimTime(0);
    let stamp = wrap_sender.now_ms(sent);
    let arrival = sirpent::sim::SimTime(5_000 * 1_000_000); // 5 s later
    let now = wrap_receiver.now_ms(arrival);
    let ok = filter.accept(now, stamp).is_ok();
    r.note(format!(
        "\nE8c — wraparound: stamp {stamp} (pre-wrap), receiver clock {now}\n\
         (post-wrap): {} — the modulo-2³² comparison of §4.2 handles the\n\
         ~49.7-day wrap (\"roughly one month\").",
        if ok { "accepted" } else { "DISCARDED (BUG)" }
    ));
    r.gate(ok, "a fresh stamp was discarded across the 2^32 ms wrap");

    // Maliciously old stamp across the wrap still rejected.
    let old_stamp = stamp.wrapping_sub(40_000);
    let rejected = filter.accept(now, old_stamp).is_err();
    r.gate(rejected, "a 45 s-old cross-wrap stamp was accepted");
    if rejected {
        r.note("a 45 s-old cross-wrap stamp is still rejected.");
    }

    r.json = obj! { delays: rows, skews: skew_rows };
    r
}

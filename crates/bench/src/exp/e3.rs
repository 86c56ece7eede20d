//! E3 — §6.2: header overhead.
//!
//! The paper's arithmetic: packet sizes are ~half minimum, a quarter
//! maximum, the rest uniform (mean ≈ 3/8 · max); hop counts are local-
//! heavy with a mean of 0.2; each VIPER hop costs 18 bytes (VIPER header
//! plus Ethernet header). "As an estimate, assume that the maximum
//! packet size is 2 kilobytes … Then the average VIPER header overhead
//! is 0.5 percent."
//!
//! We draw a large synthetic sample from exactly that mix, measure the
//! real encoded headers, compare against the IP-like baseline's fixed
//! 20-byte header, and sweep the hop count to find where source routing
//! stops being cheaper than a fixed-size header.

use crate::json::obj;
use crate::{pct, Report, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sirpent::sim::workload::{HopModel, PacketSizeMix};
use sirpent::wire::viper::SegmentRepr;
use sirpent::wire::{ethernet, ipish};

/// Encoded bytes of one VIPER Ethernet-hop segment (18 B: the §6.2
/// figure).
fn viper_hop_bytes() -> usize {
    SegmentRepr {
        port: 2,
        port_info: vec![0u8; ethernet::HEADER_LEN],
        ..Default::default()
    }
    .buffer_len()
}

/// The local-delivery segment every route ends with (4 B).
fn viper_local_bytes() -> usize {
    SegmentRepr::minimal(0).buffer_len()
}

/// Run E3.
pub fn run() -> Report {
    let mut r = Report::default();
    let hop18 = viper_hop_bytes();
    r.gate(
        hop18 == 18,
        format!("an Ethernet hop encodes to {hop18} B, not the paper's 18"),
    );
    let local4 = viper_local_bytes();

    // ---- headline reproduction -------------------------------------------
    let n = 1_000_000usize;
    let mut rng = StdRng::seed_from_u64(1989);
    let mix = PacketSizeMix { min: 64, max: 2048 };
    let hops = HopModel::paper_default();

    let mut total_payload = 0u64;
    let mut total_viper = 0u64;
    let mut total_ip = 0u64;
    let mut total_hops = 0u64;
    for _ in 0..n {
        let size = mix.sample(&mut rng) as u64;
        let h = hops.sample(&mut rng) as u64;
        total_payload += size;
        total_hops += h;
        // VIPER: 18 B per router hop + 4 B local segment; local traffic
        // (0 hops) still carries the local segment.
        total_viper += h * hop18 as u64 + local4 as u64;
        // IP: fixed 20-byte header on every packet, hops or not.
        total_ip += ipish::HEADER_LEN as u64;
    }
    let avg_pkt = total_payload as f64 / n as f64;
    let avg_hops = total_hops as f64 / n as f64;
    let viper_ov = total_viper as f64 / total_payload as f64;
    let ip_ov = total_ip as f64 / total_payload as f64;

    let mut t = Table::new(
        "E3a — §6.2 headline: average header overhead (1M packets)",
        &["quantity", "measured", "paper"],
    );
    t.row(&[
        &"avg packet size (B)",
        &format!("{avg_pkt:.0}"),
        &"~633 (\"3/8 of max\")",
    ]);
    t.row(&[&"3/8 × max", &format!("{:.0}", 0.375 * 2048.0), &"768"]);
    t.row(&[&"avg hops", &format!("{avg_hops:.3}"), &"0.2"]);
    t.row(&[&"VIPER hdr/hop (B)", &hop18, &"18"]);
    t.row(&[&"VIPER overhead", &pct(viper_ov), &"~0.5%"]);
    t.row(&[&"IP overhead (20 B fixed)", &pct(ip_ov), &"(not given)"]);
    r.table(&t);
    r.note(format!(
        "the paper computes 18·0.2 / 633 ≈ 0.57%; our measured mean packet is\n\
         {:.0} B (the paper's 633 B appears to fold the minimum-size mass in\n\
         differently), giving {} — same conclusion: header overhead is well\n\
         under 1% and *smaller than IP's* for locality-dominated traffic.",
        avg_pkt,
        pct(viper_ov)
    ));

    let mix_rows = vec![obj! {
        label: "paper mix",
        avg_packet: avg_pkt,
        avg_hops: avg_hops,
        viper_overhead: viper_ov,
        ip_overhead: ip_ov,
    }];

    // ---- hop sweep: where does VIPER stop winning? ------------------------
    let mut t2 = Table::new(
        "E3b — header bytes vs hop count (avg packet from the mix)",
        &["hops", "VIPER hdr B", "IP hdr B", "VIPER %", "IP %"],
    );
    let mut sweep = Vec::new();
    let mut crossover: Option<usize> = None;
    for h in [0usize, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48] {
        let viper = h * hop18 + local4;
        let ip = ipish::HEADER_LEN;
        if crossover.is_none() && viper > ip {
            crossover = Some(h);
        }
        t2.row(&[
            &h,
            &viper,
            &ip,
            &pct(viper as f64 / avg_pkt),
            &pct(ip as f64 / avg_pkt),
        ]);
        sweep.push(obj! {
            hops: h,
            viper_hdr: viper,
            ip_hdr: ip,
            viper_pct_of_avg: viper as f64 / avg_pkt,
            ip_pct_of_avg: ip as f64 / avg_pkt,
        });
    }
    r.table(&t2);
    r.note(format!(
        "crossover: VIPER's per-hop headers exceed IP's fixed 20 B from {} hops;\n\
         with the locality model (mean 0.2 hops) the *expected* VIPER header is\n\
         {:.1} B vs IP's 20 B — source routing is cheaper on average, exactly\n\
         the §6.2 argument. (Token-bearing segments are 50 B/hop; authorization\n\
         costs bandwidth, which §4.2 calls an explicit design trade.)",
        crossover.unwrap_or(48),
        avg_hops * hop18 as f64 + local4 as f64,
    ));

    r.json = obj! { mix: mix_rows, sweep: sweep };
    r
}

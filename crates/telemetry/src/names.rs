//! Every metric name in the workspace, as `snake_case` static strings.
//!
//! Centralizing the names here is what makes "registered by static
//! name, exactly once" statically checkable: the `telemetry-naming`
//! xtask rule verifies (a) every const in this module is a well-formed
//! `snake_case` name with no duplicates, and (b) every `publish_*` call
//! site outside this crate passes a `names::` const, never a raw string
//! literal. Counter names end in `_total`; histogram names in `_ns`
//! carry nanosecond samples; gauge scales are documented per name.

// ---- router pipeline (sim::stats::PipelineStats) ------------------------

/// Packets forwarded by a router pipeline.
pub const ROUTER_FORWARDED_TOTAL: &str = "router_forwarded_total";
/// Packets delivered to the router's own host stack.
pub const ROUTER_LOCAL_DELIVERED_TOTAL: &str = "router_local_delivered_total";
/// Packets dropped, all reasons (per-reason detail stays in the
/// `NodeStats` scrape; the registry carries the aggregate).
pub const ROUTER_DROPS_TOTAL: &str = "router_drops_total";
/// Packets that entered the parse stage.
pub const ROUTER_STAGE_PARSE_TOTAL: &str = "router_stage_parse_total";
/// Packets that entered the route stage.
pub const ROUTER_STAGE_ROUTE_TOTAL: &str = "router_stage_route_total";
/// Packets that entered the authorize stage.
pub const ROUTER_STAGE_AUTHORIZE_TOTAL: &str = "router_stage_authorize_total";
/// Packets that entered the police stage.
pub const ROUTER_STAGE_POLICE_TOTAL: &str = "router_stage_police_total";
/// Packets that entered the enqueue stage.
pub const ROUTER_STAGE_ENQUEUE_TOTAL: &str = "router_stage_enqueue_total";
/// Packets that entered the transmit stage.
pub const ROUTER_STAGE_TRANSMIT_TOTAL: &str = "router_stage_transmit_total";
/// Arrival-to-forwarding-decision service latency (first bit in →
/// decision instant), nanoseconds.
pub const ROUTER_PARSE_LATENCY_NS: &str = "router_parse_latency_ns";
/// Output-queue wait (enqueue → transmit start), nanoseconds.
pub const ROUTER_QUEUE_WAIT_NS: &str = "router_queue_wait_ns";
/// Frame transmission time on the output link, nanoseconds.
pub const ROUTER_TRANSMIT_LATENCY_NS: &str = "router_transmit_latency_ns";
/// Current output-queue occupancy across all ports (frames).
pub const ROUTER_QUEUE_DEPTH: &str = "router_queue_depth";
/// Peak output-queue occupancy observed (frames).
pub const ROUTER_QUEUE_PEAK: &str = "router_queue_peak";
/// Forwarding decisions a router could not make in the frame's own
/// event (it was not quiet until the decision instant) and so made from
/// a timer.
pub const ROUTER_DECISIONS_DEFERRED_TOTAL: &str = "router_decisions_deferred_total";

// ---- token cache (sirpent-token) ----------------------------------------

/// Token checks answered from the cache.
pub const TOKEN_CACHE_HITS_TOTAL: &str = "token_cache_hits_total";
/// Token checks that missed the cache (first sighting of the token).
pub const TOKEN_CACHE_MISSES_TOTAL: &str = "token_cache_misses_total";
/// Packets admitted optimistically before their token was verified.
pub const TOKEN_OPTIMISTIC_ADMITS_TOTAL: &str = "token_optimistic_admits_total";
/// Modelled token decrypt/verify latency, nanoseconds.
pub const TOKEN_DECRYPT_LATENCY_NS: &str = "token_decrypt_latency_ns";

// ---- transport pacer (sirpent-transport) --------------------------------

/// Current pacer send rate, bits per second (gauge, unscaled).
pub const TRANSPORT_PACER_RATE_BPS: &str = "transport_pacer_rate_bps";
/// Backpressure (rate-control) signals applied to the pacer.
pub const TRANSPORT_BACKPRESSURE_TOTAL: &str = "transport_backpressure_total";
/// Loss events applied to the pacer (multiplicative decrease).
pub const TRANSPORT_LOSS_EVENTS_TOTAL: &str = "transport_loss_events_total";

// ---- chaos layer (sim::engine) ------------------------------------------

/// Chaos events applied, all kinds.
pub const CHAOS_EVENTS_TOTAL: &str = "chaos_events_total";
/// Link up/down transitions applied.
pub const CHAOS_LINK_TRANSITIONS_TOTAL: &str = "chaos_link_transitions_total";
/// Router crash/restart transitions applied.
pub const CHAOS_ROUTER_TRANSITIONS_TOTAL: &str = "chaos_router_transitions_total";
/// Partition windows opened or closed.
pub const CHAOS_PARTITION_WINDOWS_TOTAL: &str = "chaos_partition_windows_total";
/// Channel-condition window updates (duplication / jitter / error
/// bursts).
pub const CHAOS_WINDOW_UPDATES_TOTAL: &str = "chaos_window_updates_total";

// ---- engine (sim::engine) -------------------------------------------------

/// Transmission completions a sender armed, each answered by one
/// `TxDone`; an unarmed transmission finishes without an event.
pub const SIM_COMPLETIONS_ARMED_TOTAL: &str = "sim_completions_armed_total";

// ---- failover (router::viper alternate branches) ------------------------

/// Packets diverted onto an alternate branch because the primary next
/// hop (link or peer) was down.
pub const FAILOVER_DIVERSIONS_TOTAL: &str = "failover_diversions_total";
/// Packets dropped at route time because the next hop was down and no
/// usable alternate existed.
pub const FAILOVER_NO_ALTERNATE_TOTAL: &str = "failover_no_alternate_total";
/// Packets whose alternate branch was itself unreachable when the
/// primary failed (counted in addition to the resulting drop).
pub const FAILOVER_ALTERNATE_DOWN_TOTAL: &str = "failover_alternate_down_total";

// ---- flight recorder (this crate) ---------------------------------------

/// Hop events appended to the flight ring.
pub const FLIGHT_EVENTS_RECORDED_TOTAL: &str = "flight_events_recorded_total";
/// Hop events evicted from the ring by the capacity bound.
pub const FLIGHT_EVENTS_EVICTED_TOTAL: &str = "flight_events_evicted_total";

// ---- traffic-engineered directory (sirpent-directory::te) ---------------

/// TE route queries served by the directory.
pub const TE_QUERIES_TOTAL: &str = "te_queries_total";
/// Routes returned across all TE queries.
pub const TE_ROUTES_RETURNED_TOTAL: &str = "te_routes_returned_total";
/// Congestion detours inserted into returned route sets.
pub const TE_DETOURS_TOTAL: &str = "te_detours_total";
/// TE queries that found no feasible route under the client's bounds.
pub const TE_INFEASIBLE_TOTAL: &str = "te_infeasible_total";
/// Topology epoch bumps observed (weight / load / up-down mutations).
pub const TE_EPOCH_BUMPS_TOTAL: &str = "te_epoch_bumps_total";
/// Goal-directed searches run across all TE queries (first path, Yen
/// spurs, detours). A count of work, not of time: it repeats exactly.
pub const TE_SEARCHES_TOTAL: &str = "te_searches_total";
/// Nodes settled across all TE queries, reverse trees included — new
/// settles only: a node of a kept reverse tree is not counted again.
pub const TE_NODES_SETTLED_TOTAL: &str = "te_nodes_settled_total";
/// TE queries answered from a reverse tree kept from an earlier query.
pub const TE_TREES_REUSED_TOTAL: &str = "te_trees_reused_total";

// ---- hosts --------------------------------------------------------------

/// Frames injected by scripted hosts.
pub const HOST_INJECTED_TOTAL: &str = "host_injected_total";
/// Frames delivered to scripted hosts.
pub const HOST_DELIVERED_TOTAL: &str = "host_delivered_total";
/// Packets a `SirpentHost` could not build (route plus payload over the
/// transmission unit, or a malformed route) and so never sent.
pub const HOST_BUILD_REFUSED_TOTAL: &str = "host_build_refused_total";
/// Queued requests the transport refused (over 32 group members).
pub const HOST_MESSAGE_REFUSED_TOTAL: &str = "host_message_refused_total";
/// Packets dropped at the host for want of a route or reply context.
pub const HOST_NO_ROUTE_TOTAL: &str = "host_no_route_total";
/// Transaction state a `SirpentHost` holds that is due to retire:
/// requests awaiting a response, groups sent and still needed, partial
/// reassemblies (gauge, unscaled).
pub const HOST_OPEN_TRANSACTIONS: &str = "host_open_transactions";

#[cfg(test)]
mod tests {
    /// Mirror of the static half of the `telemetry-naming` lint, kept as
    /// a unit test so the invariant also holds when the linter is not
    /// run.
    #[test]
    fn names_are_snake_case_and_unique() {
        let all = [
            super::ROUTER_FORWARDED_TOTAL,
            super::ROUTER_LOCAL_DELIVERED_TOTAL,
            super::ROUTER_DROPS_TOTAL,
            super::ROUTER_STAGE_PARSE_TOTAL,
            super::ROUTER_STAGE_ROUTE_TOTAL,
            super::ROUTER_STAGE_AUTHORIZE_TOTAL,
            super::ROUTER_STAGE_POLICE_TOTAL,
            super::ROUTER_STAGE_ENQUEUE_TOTAL,
            super::ROUTER_STAGE_TRANSMIT_TOTAL,
            super::ROUTER_PARSE_LATENCY_NS,
            super::ROUTER_QUEUE_WAIT_NS,
            super::ROUTER_TRANSMIT_LATENCY_NS,
            super::ROUTER_QUEUE_DEPTH,
            super::ROUTER_QUEUE_PEAK,
            super::ROUTER_DECISIONS_DEFERRED_TOTAL,
            super::TOKEN_CACHE_HITS_TOTAL,
            super::TOKEN_CACHE_MISSES_TOTAL,
            super::TOKEN_OPTIMISTIC_ADMITS_TOTAL,
            super::TOKEN_DECRYPT_LATENCY_NS,
            super::TRANSPORT_PACER_RATE_BPS,
            super::TRANSPORT_BACKPRESSURE_TOTAL,
            super::TRANSPORT_LOSS_EVENTS_TOTAL,
            super::CHAOS_EVENTS_TOTAL,
            super::CHAOS_LINK_TRANSITIONS_TOTAL,
            super::CHAOS_ROUTER_TRANSITIONS_TOTAL,
            super::CHAOS_PARTITION_WINDOWS_TOTAL,
            super::CHAOS_WINDOW_UPDATES_TOTAL,
            super::SIM_COMPLETIONS_ARMED_TOTAL,
            super::FAILOVER_DIVERSIONS_TOTAL,
            super::FAILOVER_NO_ALTERNATE_TOTAL,
            super::FAILOVER_ALTERNATE_DOWN_TOTAL,
            super::TE_QUERIES_TOTAL,
            super::TE_ROUTES_RETURNED_TOTAL,
            super::TE_DETOURS_TOTAL,
            super::TE_INFEASIBLE_TOTAL,
            super::TE_EPOCH_BUMPS_TOTAL,
            super::TE_SEARCHES_TOTAL,
            super::TE_NODES_SETTLED_TOTAL,
            super::TE_TREES_REUSED_TOTAL,
            super::FLIGHT_EVENTS_RECORDED_TOTAL,
            super::FLIGHT_EVENTS_EVICTED_TOTAL,
            super::HOST_INJECTED_TOTAL,
            super::HOST_DELIVERED_TOTAL,
            super::HOST_BUILD_REFUSED_TOTAL,
            super::HOST_MESSAGE_REFUSED_TOTAL,
            super::HOST_NO_ROUTE_TOTAL,
            super::HOST_OPEN_TRANSACTIONS,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for n in all {
            assert!(
                n.as_bytes()[0].is_ascii_lowercase()
                    && n.bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{n} is not snake_case"
            );
            assert!(seen.insert(n), "{n} duplicated");
        }
    }
}

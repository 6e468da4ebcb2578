//! Calibrated cost-model parameters.
//!
//! Every constant is calibrated against a number the paper reports; the doc
//! comment on each field says which. Times are microseconds (converted to
//! [`SimDur`](lmpi_sim::SimDur) at use sites); rates are microseconds per byte.
//!
//! The decompositions are not unique — the paper gives totals, not
//! per-component budgets — but the *totals* these parameters produce match
//! the paper: 52 µs tport round trip, 104 µs low-latency MPI round trip,
//! 210 µs MPICH round trip, a 180-byte eager/rendezvous crossover,
//! 39 MB/s Meiko DMA bandwidth, 925/1065 µs Ethernet/ATM TCP round trips,
//! and the Table-1 overhead breakdown.

/// Meiko CS/2 cost model (Figs. 1-3).
///
/// A node is a 40 MHz SuperSPARC plus an Elan communications co-processor.
/// Small control messages ("transactions") are issued by the SPARC and
/// carried by the Elan; bulk data moves via the Elan's DMA engine at up to
/// 39 MB/s (Fig. 3's ceiling).
#[derive(Copy, Clone, Debug)]
pub struct MeikoParams {
    /// SPARC-side cost to build and issue one MPI envelope/control
    /// transaction, µs. Part of the 52 µs one-way MPI budget.
    pub txn_issue_us: f64,
    /// Elan + wire + remote-Elan time for a control transaction, µs.
    pub txn_wire_us: f64,
    /// Per-byte cost of payload piggybacked on a transaction (word-by-word
    /// remote stores), µs/B. Together with `copy_rate_us` this sets the
    /// slope of Fig. 1's "Buffering" line.
    pub txn_per_byte_us: f64,
    /// Receiver-side matching cost on the SPARC including receive-path MPI
    /// overhead, µs. (Paper: matching on the fast main processor.)
    pub sparc_match_us: f64,
    /// Receiver-side cost per byte to copy out of the bounce buffer, µs/B.
    /// The eager path pays this; the rendezvous path does not (Fig. 1).
    pub copy_rate_us: f64,
    /// DMA engine setup cost, µs.
    pub dma_setup_us: f64,
    /// DMA per-byte cost, µs/B. 0.0256 µs/B = 39 MB/s (Fig. 3 ceiling).
    pub dma_per_byte_us: f64,
    /// Wire latency for DMA completion notification, µs.
    pub dma_notify_us: f64,
    /// Hardware broadcast: fixed latency to all group members, µs.
    pub bcast_base_us: f64,
    /// Hardware broadcast per-byte cost, µs/B.
    pub bcast_per_byte_us: f64,
    /// Raw tport widget: one-way fixed latency, µs. 26 µs = half the 52 µs
    /// round trip of Fig. 2's lowest curve.
    pub tport_base_us: f64,
    /// Raw tport per-byte cost, µs/B (DMA-backed).
    pub tport_per_byte_us: f64,
    /// MPICH-over-tport: extra per-message CPU overhead on the send side,
    /// µs (envelope construction through the tport interface).
    pub mpich_send_ovh_us: f64,
    /// MPICH-over-tport: extra receive-side overhead excluding matching, µs.
    pub mpich_recv_ovh_us: f64,
    /// Matching on the 10 MHz Elan co-processor plus Elan↔SPARC completion
    /// synchronization, µs. Slower than `sparc_match_us` — the paper's
    /// central comparison. MPICH totals +79 µs one-way over raw tport
    /// (Fig. 2: 210 µs vs 52 µs round trip).
    pub elan_match_us: f64,
    /// MPICH extra per-byte cost (additional buffering through the tport
    /// layer), µs/B.
    pub mpich_per_byte_us: f64,
}

impl Default for MeikoParams {
    fn default() -> Self {
        MeikoParams {
            // Low-latency MPI one-way at 1 byte:
            //   txn_issue + txn_wire + sparc_match ≈ 10 + 18 + 24 = 52 µs
            // matching Fig. 2's 104 µs round trip.
            txn_issue_us: 10.0,
            txn_wire_us: 18.0,
            // Eager slope 0.10 + 0.06 = 0.16 µs/B against the rendezvous
            // extra cost of ~24 µs puts the crossover at ~180 B (Fig. 1).
            txn_per_byte_us: 0.10,
            sparc_match_us: 24.0,
            copy_rate_us: 0.06,
            // Rendezvous extra cost = go-ahead wire crossing (18) + DMA
            // setup (4) + completion notification (2) = 24 µs, against the
            // eager path's 0.1344 µs/B extra slope: crossover ≈ 180 B.
            dma_setup_us: 4.0,
            dma_per_byte_us: 0.0256, // 39 MB/s
            dma_notify_us: 2.0,
            bcast_base_us: 30.0,
            bcast_per_byte_us: 0.05,
            tport_base_us: 26.0, // 52 µs round trip at 1 byte
            tport_per_byte_us: 0.0256,
            // MPICH adds 79 µs one-way (Fig. 2: 158 µs extra round trip):
            //   20 (send ovh) + 35 (Elan match) + 24 (recv ovh + sync) = 79.
            mpich_send_ovh_us: 20.0,
            mpich_recv_ovh_us: 24.0,
            elan_match_us: 35.0,
            mpich_per_byte_us: 0.005,
        }
    }
}

/// Shared 10 Mbit/s Ethernet (Figs. 5-6, 9; Table 1).
#[derive(Copy, Clone, Debug)]
pub struct EthParams {
    /// Wire time per byte, µs/B. 0.8 µs/B = 10 Mbit/s.
    pub wire_per_byte_us: f64,
    /// Propagation + adapter latency per frame, µs.
    pub prop_us: f64,
    /// Inter-frame gap enforced on the shared medium, µs.
    pub ifg_us: f64,
    /// Segment (MTU payload) size, bytes.
    pub mtu: usize,
}

impl Default for EthParams {
    fn default() -> Self {
        EthParams {
            wire_per_byte_us: 0.8,
            prop_us: 5.0,
            ifg_us: 9.6, // 96 bit times at 10 Mbit/s
            mtu: 1460,
        }
    }
}

/// Fore ASX-200 ATM switch with 155 Mbit/s ports (Figs. 4-6, 9; Table 1).
#[derive(Copy, Clone, Debug)]
pub struct AtmParams {
    /// Wire time per 53-byte cell, µs. 53 B at 155 Mbit/s = 2.74 µs.
    pub cell_time_us: f64,
    /// Payload bytes per cell (AAL5: 48 of 53).
    pub cell_payload: usize,
    /// Switch traversal latency, µs.
    pub switch_us: f64,
    /// Classical-IP MTU, bytes.
    pub mtu: usize,
}

impl Default for AtmParams {
    fn default() -> Self {
        AtmParams {
            cell_time_us: 2.74,
            cell_payload: 48,
            switch_us: 10.0,
            mtu: 9180,
        }
    }
}

/// Kernel socket cost model, one set per (protocol, fabric) pair.
///
/// Calibrated to Table 1: Ethernet TCP 925 µs round trip at 1 byte, ATM TCP
/// 1065 µs; +45 µs (Ethernet) / +5 µs (ATM) for 25 extra bytes; 65/85 µs
/// per read syscall.
#[derive(Copy, Clone, Debug)]
pub struct SocketParams {
    /// Sender kernel path: syscall entry, protocol processing, driver, µs.
    pub send_fixed_us: f64,
    /// Sender per-byte copy into kernel buffers, µs/B. Pipeline bottleneck
    /// for bandwidth: 1.0 µs/B ⇒ ~1 MB/s on Ethernet TCP (Fig. 6).
    pub copy_per_byte_us: f64,
    /// Receiver kernel path up to data-ready, µs.
    pub recv_fixed_us: f64,
    /// Cost of one `read()` crossing the kernel boundary, µs. The paper's
    /// MPI does two extra reads per message (type, then envelope): 65 µs
    /// each on Ethernet, 85 µs on ATM (Table 1).
    pub read_fixed_us: f64,
}

impl SocketParams {
    /// TCP over 10 Mbit/s Ethernet: 925 µs round trip at 1 byte.
    /// one-way = 160 + 1×1.0 + wire(1.8 + 5) + 230 + 65 ≈ 462.5 µs.
    pub fn tcp_eth() -> Self {
        SocketParams {
            send_fixed_us: 160.0,
            copy_per_byte_us: 1.0,
            recv_fixed_us: 230.0,
            read_fixed_us: 65.0,
        }
    }

    /// UDP over Ethernet: slightly lighter than TCP in the kernel.
    pub fn udp_eth() -> Self {
        SocketParams {
            send_fixed_us: 140.0,
            copy_per_byte_us: 1.0,
            recv_fixed_us: 215.0,
            read_fixed_us: 65.0,
        }
    }

    /// TCP over ATM (Fore driver + streams): 1065 µs round trip at 1 byte.
    /// one-way = 250 + 0.14 + cell(2.74) + switch(10) + 184.6 + 85 ≈ 532.5.
    pub fn tcp_atm() -> Self {
        SocketParams {
            send_fixed_us: 250.0,
            copy_per_byte_us: 0.143,
            recv_fixed_us: 184.6,
            read_fixed_us: 85.0,
        }
    }

    /// UDP over ATM.
    pub fn udp_atm() -> Self {
        SocketParams {
            send_fixed_us: 230.0,
            copy_per_byte_us: 0.143,
            recv_fixed_us: 170.0,
            read_fixed_us: 85.0,
        }
    }

    /// Fore API raw AAL4/AAL5 access: skips IP but keeps the streams stack,
    /// so it is "not significantly faster" than TCP (Fig. 4) — faster only
    /// at small sizes.
    pub fn aal_atm() -> Self {
        SocketParams {
            send_fixed_us: 225.0,
            copy_per_byte_us: 0.143,
            recv_fixed_us: 160.0,
            read_fixed_us: 85.0,
        }
    }
}

/// Application compute model: a 1996 workstation-class CPU.
#[derive(Copy, Clone, Debug)]
pub struct CpuParams {
    /// Microseconds per floating-point operation (load/op/store mix).
    pub us_per_flop: f64,
}

impl CpuParams {
    /// 40 MHz SuperSPARC (Meiko CS/2 node): ~5 cycles per sustained flop
    /// with memory traffic ⇒ 0.125 µs/flop.
    pub fn meiko_sparc() -> Self {
        CpuParams { us_per_flop: 0.125 }
    }

    /// 133 MHz SGI Indy (R4600): faster clock, similar sustained ratio.
    pub fn sgi_indy() -> Self {
        CpuParams { us_per_flop: 0.04 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meiko_one_way_budget_matches_figure_2() {
        let p = MeikoParams::default();
        // Low-latency MPI, 1 byte, one way.
        let one_way = p.txn_issue_us + p.txn_wire_us + p.sparc_match_us;
        assert!((one_way - 52.0).abs() < 1.0, "one-way {one_way} != 52us");
        // Raw tport round trip.
        assert!((2.0 * p.tport_base_us - 52.0).abs() < 0.1);
        // MPICH adds ~158us to the round trip over tport.
        let mpich_extra = p.mpich_send_ovh_us + p.elan_match_us + p.mpich_recv_ovh_us;
        assert!((2.0 * mpich_extra - 158.0).abs() < 2.0);
    }

    #[test]
    fn meiko_crossover_near_180_bytes() {
        let p = MeikoParams::default();
        // Eager one-way(n) - rendezvous one-way(n) changes sign at the
        // crossover: eager pays per-byte txn + copy; rendezvous pays an
        // extra control round + DMA setup but moves data at DMA rate.
        let eager = |n: f64| n * (p.txn_per_byte_us + p.copy_rate_us);
        let rndv =
            |n: f64| p.txn_wire_us + p.dma_setup_us + p.dma_notify_us + n * p.dma_per_byte_us;
        let crossover = (0..4096)
            .find(|&n| eager(n as f64) > rndv(n as f64))
            .unwrap();
        assert!(
            (150..=240).contains(&crossover),
            "crossover {crossover} should be near the paper's 180 bytes"
        );
    }

    #[test]
    fn dma_rate_is_39_mb_per_s() {
        let p = MeikoParams::default();
        let mb_per_s = 1.0 / p.dma_per_byte_us; // bytes/us == MB/s
        assert!((mb_per_s - 39.0).abs() < 0.1);
    }

    #[test]
    fn tcp_round_trips_match_table_1() {
        let eth = SocketParams::tcp_eth();
        let e = EthParams::default();
        let one_way = eth.send_fixed_us
            + eth.copy_per_byte_us
            + 1.0 * e.wire_per_byte_us
            + e.prop_us
            + eth.recv_fixed_us
            + eth.read_fixed_us;
        assert!(
            (2.0 * one_way - 925.0).abs() < 10.0,
            "eth rtt {}",
            2.0 * one_way
        );

        let atm = SocketParams::tcp_atm();
        let a = AtmParams::default();
        let one_way = atm.send_fixed_us
            + atm.copy_per_byte_us
            + a.cell_time_us
            + a.switch_us
            + atm.recv_fixed_us
            + atm.read_fixed_us;
        assert!(
            (2.0 * one_way - 1065.0).abs() < 10.0,
            "atm rtt {}",
            2.0 * one_way
        );
    }

    #[test]
    fn marginal_25_byte_costs_match_table_1() {
        // Table 1: +45us on Ethernet, +5us on ATM for 25 bytes of protocol
        // info (per direction, small messages: copy + wire, unpipelined).
        let eth_marginal = 25.0
            * (SocketParams::tcp_eth().copy_per_byte_us + EthParams::default().wire_per_byte_us);
        assert!((eth_marginal - 45.0).abs() < 2.0, "{eth_marginal}");
        // ATM: 25 extra bytes stay within the same cell or add one cell;
        // the copy cost dominates the marginal.
        let atm_marginal = 25.0 * SocketParams::tcp_atm().copy_per_byte_us + 2.74;
        assert!((atm_marginal - 5.0).abs() < 2.0, "{atm_marginal}");
    }
}

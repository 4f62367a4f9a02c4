//! A switch: routing, forwarding delay, ECN marking, and PFC generation.
//!
//! The switch is output-queued: an arriving packet is routed, optionally
//! ECN-marked against the chosen egress queue's depth, and enqueued there.
//! PFC is ingress-accounted: the switch tracks how many buffered bytes each
//! (ingress cable, priority) pair is responsible for and pauses the
//! upstream sender when a threshold is crossed — exactly the 802.1Qbb
//! structure that lets pause storms propagate hop by hop (§IX "Eradicate
//! PFC" discusses why that matters).

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use xrdma_sim::{invariant, Dur, SimRng, World};
use xrdma_telemetry::tele;

use crate::config::{EcnConfig, PfcConfig};
use crate::packet::{Packet, NPRIO, PRIO_TCP};
use crate::port::Port;
use crate::stats::FabricStats;
use crate::topology::{NextHop, SwitchAddr, Topology};

/// Per-(ingress, priority) PFC bookkeeping.
#[derive(Clone, Copy, Default)]
struct IngressState {
    bytes: u64,
    xoff_sent: bool,
}

pub struct Switch {
    world: Rc<World>,
    pub addr: SwitchAddr,
    topo: Rc<Topology>,
    ecn: EcnConfig,
    pfc: PfcConfig,
    forward_delay: Dur,
    /// Control-frame flight time back to the upstream device.
    ctrl_delay: Dur,
    /// Egress ports in a fixed layout; `route_port` maps a NextHop to one.
    ports: RefCell<Vec<Rc<Port>>>,
    /// Down-port index base: ports[0..n_down] are down, rest up.
    n_down: usize,
    /// The port on the *upstream device* feeding each of our ingress
    /// indices — where PFC pause frames for that ingress must go.
    upstream: RefCell<Vec<Weak<Port>>>,
    ingress: RefCell<Vec<[IngressState; NPRIO]>>,
    stats: Rc<FabricStats>,
    rng: RefCell<SimRng>,
}

impl Switch {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        world: Rc<World>,
        addr: SwitchAddr,
        topo: Rc<Topology>,
        ecn: EcnConfig,
        pfc: PfcConfig,
        forward_delay: Dur,
        ctrl_delay: Dur,
        n_down: usize,
        stats: Rc<FabricStats>,
        rng: SimRng,
    ) -> Rc<Switch> {
        Rc::new(Switch {
            world,
            addr,
            topo,
            ecn,
            pfc,
            forward_delay,
            ctrl_delay,
            ports: RefCell::new(Vec::new()),
            n_down,
            upstream: RefCell::new(Vec::new()),
            ingress: RefCell::new(Vec::new()),
            stats,
            rng: RefCell::new(rng),
        })
    }

    /// Wire up egress ports (down ports first, then up ports). Called once
    /// by the fabric builder.
    pub(crate) fn set_ports(self: &Rc<Self>, ports: Vec<Rc<Port>>) {
        for p in &ports {
            p.set_owner(self);
        }
        *self.ports.borrow_mut() = ports;
    }

    /// Reserve a new ingress index for a cable being wired up. The upstream
    /// port is filled in by [`Switch::set_upstream`] once it exists (the
    /// port needs the index at construction, hence the two-step dance).
    pub(crate) fn reserve_ingress(&self) -> usize {
        let mut ups = self.upstream.borrow_mut();
        ups.push(Weak::new());
        self.ingress
            .borrow_mut()
            .push([IngressState::default(); NPRIO]);
        ups.len() - 1
    }

    /// Complete ingress registration with the upstream port feeding it.
    pub(crate) fn set_upstream(&self, idx: usize, upstream: Weak<Port>) {
        self.upstream.borrow_mut()[idx] = upstream;
    }

    #[allow(dead_code)]
    pub(crate) fn port(&self, idx: usize) -> Rc<Port> {
        self.ports.borrow()[idx].clone()
    }

    /// Map a routing decision to an egress port index.
    ///
    /// Port layout: ToR → down ports are one per attached host (host index
    /// within rack), up ports one per pod leaf. Leaf → down ports one per
    /// pod ToR, up ports one per spine. Spine → down ports one per leaf
    /// (globally indexed).
    fn egress_index(&self, hop: NextHop) -> usize {
        use crate::topology::Tier::*;
        match (self.addr.tier, hop) {
            (Tor, NextHop::Host(h)) => (h.0 % self.topo.hosts_per_tor) as usize,
            (Tor, NextHop::Switch(s)) => {
                debug_assert_eq!(s.tier, Leaf);
                self.n_down + (s.idx % self.topo.leaves_per_pod) as usize
            }
            (Leaf, NextHop::Switch(s)) => match s.tier {
                Tor => (s.idx % self.topo.tors_per_pod) as usize,
                Spine => self.n_down + s.idx as usize,
                Leaf => unreachable!("leaf->leaf"),
            },
            (Spine, NextHop::Switch(s)) => {
                debug_assert_eq!(s.tier, Leaf);
                s.idx as usize
            }
            _ => unreachable!("invalid hop {hop:?} at {:?}", self.addr),
        }
    }

    /// A packet arrives from cable `ingress`.
    pub(crate) fn receive(self: &Rc<Self>, mut pkt: Packet, ingress: usize) {
        let hop = self.topo.next_hop(self.addr, pkt.dst, pkt.flow_hash);
        let eidx = self.egress_index(hop);
        let port = self.ports.borrow()[eidx].clone();

        // ECN marking against the chosen egress queue depth (RED).
        if pkt.ecn_capable && self.ecn.enabled {
            let p = self.ecn.mark_probability(port.queue_bytes(pkt.prio));
            if p > 0.0 && self.rng.borrow_mut().chance(p) && !pkt.ecn_marked {
                pkt.ecn_marked = true;
                self.stats.on_ecn_mark();
                tele!(EcnMark {
                    port: port.label.clone(),
                    queued_bytes: port.queue_bytes(pkt.prio),
                });
            }
        }

        let prio = pkt.prio as usize;
        let size = pkt.size_bytes as u64;
        // Lossy fast path: with PFC off the pipeline event only needs the
        // egress port, not the switch — skip the per-packet `Rc<Switch>`
        // clone/drop pair (and the dead accounting branch) entirely.
        if !self.pfc.enabled {
            self.world.schedule_in(self.forward_delay, move || {
                port.enqueue(pkt, ingress);
            });
            return;
        }
        let me = self.clone();
        // Forwarding pipeline delay, then enqueue at egress.
        self.world.schedule_in(self.forward_delay, move || {
            if !port.enqueue(pkt, ingress) {
                // Dropped at full queue: no ingress accounting was added.
                return;
            }
            // PFC ingress accounting for lossless classes.
            if me.pfc.enabled && prio != PRIO_TCP as usize {
                let send_xoff = {
                    let mut ing = me.ingress.borrow_mut();
                    let st = &mut ing[ingress][prio];
                    st.bytes += size;
                    if st.bytes > me.pfc.xoff_bytes && !st.xoff_sent {
                        st.xoff_sent = true;
                        true
                    } else {
                        false
                    }
                };
                if send_xoff {
                    me.send_pfc(ingress, prio as u8, true);
                }
            }
        });
    }

    /// Egress accounting hook: `size` bytes that entered via `ingress`
    /// have left the switch.
    pub(crate) fn on_dequeued(self: &Rc<Self>, ingress: usize, prio: u8, size: u32) {
        if !self.pfc.enabled || prio == PRIO_TCP {
            return;
        }
        let send_xon = {
            let mut ing = self.ingress.borrow_mut();
            let st = &mut ing[ingress][prio as usize];
            // PFC pause/resume decisions key off this counter; an underflow
            // here would wedge an XOFF on (or never send one) forever.
            invariant!(
                st.bytes >= size as u64,
                "PFC ingress accounting underflow: ingress {} prio {} has {} bytes, releasing {}",
                ingress,
                prio,
                st.bytes,
                size
            );
            st.bytes = st.bytes.saturating_sub(size as u64);
            if st.xoff_sent && st.bytes <= self.pfc.xon_bytes {
                st.xoff_sent = false;
                true
            } else {
                false
            }
        };
        if send_xon {
            self.send_pfc(ingress, prio, false);
        }
    }

    /// Emit a pause (XOFF) or resume (XON) control frame to the upstream
    /// device feeding `ingress`. Control frames bypass data queues; we model
    /// them as a scheduled flag change after the control flight time.
    fn send_pfc(&self, ingress: usize, prio: u8, xoff: bool) {
        let upstream = self.upstream.borrow()[ingress].clone();
        let Some(upstream) = upstream.upgrade() else {
            return;
        };
        if xoff {
            self.stats
                .on_pause(self.world.now(), upstream.host_owned, &upstream.label);
            tele!(PfcXoff {
                port: upstream.label.clone(),
                prio,
                to_host: upstream.host_owned,
            });
        } else {
            self.stats.on_resume();
            tele!(PfcXon {
                port: upstream.label.clone(),
                prio,
            });
        }
        let host_owned = upstream.host_owned;
        self.world.schedule_in(self.ctrl_delay, move || {
            upstream.set_paused(prio, xoff);
            if host_owned {
                // Let the host NIC observe its own pause state (the
                // monitoring system exports it as the TX-pause index).
                upstream.notify_host_pause(prio, xoff);
            }
        });
    }

    /// Convenience: sum of all egress queue occupancy.
    pub fn buffered_bytes(&self) -> u64 {
        self.ports.borrow().iter().map(|p| p.total_queued()).sum()
    }
}

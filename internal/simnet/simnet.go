// Package simnet models the cluster network at flow level.
//
// Every node has an ingress and an egress port at NIC bandwidth; every
// rack has an uplink port. A transfer within a rack crosses {src egress,
// dst ingress}; a cross-rack transfer additionally crosses both racks'
// uplink ports. Bandwidth within each port is shared max-min fairly by
// the fairshare system.
//
// Node network failure ("stopping the network services on a node", as the
// paper injects) is modelled by dropping the node's port capacities to
// zero: established flows stall and new connection attempts fail fast via
// Reachable.
package simnet

import (
	"fmt"
	"math/rand"

	"alm/internal/fairshare"
	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/topology"
)

// linkState is the gray-failure state of one node pair: connection
// attempts fail with probability prob, and (when degraded) the pair's
// traffic additionally crosses a narrowed link port.
type linkState struct {
	prob float64
	port *fairshare.Port // nil when only loss, not bandwidth, is degraded
}

// Network is the flow-level network model for one cluster.
type Network struct {
	eng     *sim.Engine
	topo    *topology.Topology
	sys     *fairshare.System
	ingress []*fairshare.Port
	egress  []*fairshare.Port
	uplinks []*fairshare.Port
	down    []bool

	// nicFactor scales each node's NIC bandwidth (1 = healthy). Applied on
	// top of down/up transitions so a degraded NIC stays degraded across a
	// partition heal.
	nicFactor []float64

	// flaky holds per-pair gray-failure state, keyed by the ordered
	// (min, max) node pair; flakiness is symmetric like a bad cable.
	flaky map[[2]topology.NodeID]*linkState

	// connectFails counts flaky-link connection failures; nil (a no-op)
	// until SetMetrics.
	connectFails *metrics.Counter
}

// New builds the network for the given topology.
func New(e *sim.Engine, topo *topology.Topology) *Network {
	n := &Network{
		eng:       e,
		topo:      topo,
		sys:       fairshare.NewSystem(e),
		ingress:   make([]*fairshare.Port, topo.NumNodes()),
		egress:    make([]*fairshare.Port, topo.NumNodes()),
		uplinks:   make([]*fairshare.Port, topo.NumRacks()),
		down:      make([]bool, topo.NumNodes()),
		nicFactor: make([]float64, topo.NumNodes()),
	}
	for i := range n.nicFactor {
		n.nicFactor[i] = 1
	}
	for _, node := range topo.Nodes() {
		n.ingress[node.ID] = n.sys.NewPort(fmt.Sprintf("%s/in", node.Name), node.HW.NICBandwidth)
		n.egress[node.ID] = n.sys.NewPort(fmt.Sprintf("%s/out", node.Name), node.HW.NICBandwidth)
	}
	for r := 0; r < topo.NumRacks(); r++ {
		n.uplinks[r] = n.sys.NewPort(fmt.Sprintf("rack-%d/uplink", r), topo.RackUplink)
	}
	return n
}

// System exposes the underlying fair-share system (used by models that
// need composite flows spanning network and disk ports).
func (n *Network) System() *fairshare.System { return n.sys }

// IngressPort returns the ingress port of a node.
func (n *Network) IngressPort(id topology.NodeID) *fairshare.Port { return n.ingress[id] }

// EgressPort returns the egress port of a node.
func (n *Network) EgressPort(id topology.NodeID) *fairshare.Port { return n.egress[id] }

// Reachable reports whether src can currently open a connection to dst.
// Local "transfers" (src == dst) are always reachable.
func (n *Network) Reachable(src, dst topology.NodeID) bool {
	if src == dst {
		return !n.down[src]
	}
	return !n.down[src] && !n.down[dst]
}

// NodeDown reports whether the node's network is disabled.
func (n *Network) NodeDown(id topology.NodeID) bool { return n.down[id] }

// SetNodeDown disables a node's network: its ports drop to zero capacity,
// stalling in-flight flows, and Reachable reports false.
func (n *Network) SetNodeDown(id topology.NodeID) {
	if n.down[id] {
		return
	}
	n.down[id] = true
	n.ingress[id].SetCapacity(0)
	n.egress[id].SetCapacity(0)
}

// SetNodeUp re-enables a node's network at its current NIC factor:
// in-flight flows that stalled at zero capacity resume, and Reachable
// reports true again — the heal half of a transient partition.
func (n *Network) SetNodeUp(id topology.NodeID) {
	if !n.down[id] {
		return
	}
	n.down[id] = false
	bw := n.topo.Node(id).HW.NICBandwidth * n.nicFactor[id]
	n.ingress[id].SetCapacity(bw)
	n.egress[id].SetCapacity(bw)
}

// SetNICFactor scales a node's NIC bandwidth to factor of hardware rate
// (factor 1 restores full speed). The factor persists across down/up
// transitions; it is a no-op on the ports while the node is down.
func (n *Network) SetNICFactor(id topology.NodeID, factor float64) {
	if factor <= 0 {
		factor = 0.01
	}
	n.nicFactor[id] = factor
	if n.down[id] {
		return
	}
	bw := n.topo.Node(id).HW.NICBandwidth * factor
	n.ingress[id].SetCapacity(bw)
	n.egress[id].SetCapacity(bw)
}

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// SetLinkFlaky makes the (a, b) pair a gray link: AttemptFails reports
// connection failures with probability prob, and when 0 < bwFactor < 1
// the pair's traffic additionally crosses a link port narrowed to
// bwFactor of the slower endpoint's NIC. Calling it again replaces the
// pair's flakiness parameters.
func (n *Network) SetLinkFlaky(a, b topology.NodeID, prob, bwFactor float64) {
	if a == b {
		return
	}
	if n.flaky == nil {
		n.flaky = make(map[[2]topology.NodeID]*linkState)
	}
	key := linkKey(a, b)
	st := n.flaky[key]
	if st == nil {
		st = &linkState{}
		n.flaky[key] = st
	}
	st.prob = prob
	if bwFactor > 0 && bwFactor < 1 {
		nic := n.topo.Node(a).HW.NICBandwidth
		if other := n.topo.Node(b).HW.NICBandwidth; other < nic {
			nic = other
		}
		if st.port == nil {
			st.port = n.sys.NewPort(fmt.Sprintf("link:%d-%d", key[0], key[1]), nic*bwFactor)
		} else {
			st.port.SetCapacity(nic * bwFactor)
		}
	} else if st.port != nil {
		// Loss-only flakiness: open the narrowed port back up so it stops
		// constraining flows that still cross it.
		nic := n.topo.Node(a).HW.NICBandwidth
		if other := n.topo.Node(b).HW.NICBandwidth; other < nic {
			nic = other
		}
		st.port.SetCapacity(nic)
	}
}

// HealLink removes the (a, b) pair's flakiness. In-flight flows pinned to
// the link port are released by restoring its capacity to the endpoints'
// NIC rate before the state is dropped.
func (n *Network) HealLink(a, b topology.NodeID) {
	key := linkKey(a, b)
	st := n.flaky[key]
	if st == nil {
		return
	}
	if st.port != nil {
		nic := n.topo.Node(a).HW.NICBandwidth
		if other := n.topo.Node(b).HW.NICBandwidth; other < nic {
			nic = other
		}
		st.port.SetCapacity(nic)
	}
	delete(n.flaky, key)
}

// LinkFlaky reports whether the (a, b) pair currently has gray-failure
// state.
func (n *Network) LinkFlaky(a, b topology.NodeID) bool {
	if len(n.flaky) == 0 {
		return false
	}
	return n.flaky[linkKey(a, b)] != nil
}

// AttemptFails reports whether a connection attempt from src to dst fails
// due to link flakiness, drawing from rng only when the pair actually has
// flaky state — healthy clusters make no draws, preserving byte-for-byte
// trace identity of fault-free runs.
func (n *Network) AttemptFails(src, dst topology.NodeID, rng *rand.Rand) bool {
	if len(n.flaky) == 0 || src == dst {
		return false
	}
	st := n.flaky[linkKey(src, dst)]
	if st == nil || st.prob <= 0 {
		return false
	}
	if rng.Float64() < st.prob {
		n.connectFails.Inc()
		return true
	}
	return false
}

// SetMetrics attaches a registry: subsequent flaky-link connection
// failures count into alm_net_connect_failures_total.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.connectFails = reg.Counter("alm_net_connect_failures_total")
}

// PortsFor returns the set of network ports a transfer from src to dst
// crosses. Local transfers cross no network ports.
func (n *Network) PortsFor(src, dst topology.NodeID) []*fairshare.Port {
	return n.AppendPortsFor(nil, src, dst)
}

// AppendPortsFor appends the ports a src→dst transfer crosses to dst0 and
// returns the extended slice. Hot callers (fetch sessions) pass a reused
// scratch slice so the per-transfer port list costs no allocation;
// StartFlow copies the ports it is given, so the scratch can be reused
// immediately.
func (n *Network) AppendPortsFor(dst0 []*fairshare.Port, src, dst topology.NodeID) []*fairshare.Port {
	if src == dst {
		return dst0
	}
	ports := append(dst0, n.egress[src], n.ingress[dst])
	if !n.topo.SameRack(src, dst) {
		ports = append(ports, n.uplinks[n.topo.RackOf(src)], n.uplinks[n.topo.RackOf(dst)])
	}
	if len(n.flaky) > 0 {
		if st := n.flaky[linkKey(src, dst)]; st != nil && st.port != nil {
			ports = append(ports, st.port)
		}
	}
	return ports
}

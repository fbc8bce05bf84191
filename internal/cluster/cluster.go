// Package cluster implements the YARN control plane of the simulation:
// NodeManagers that heartbeat to a ResourceManager, memory-based
// container allocation with locality and priority, node-liveness expiry,
// and the node-level fault hooks (crash, network stop) the paper injects.
package cluster

import (
	"container/heap"
	"fmt"

	"alm/internal/dfs"
	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/simdisk"
	"alm/internal/simnet"
	"alm/internal/topology"
)

// Container is a granted resource lease on a node.
type Container struct {
	ID    int
	Node  topology.NodeID
	MemMB int
	// OnKill is invoked when the container is killed because its node was
	// lost. It is set by the task runtime after the grant.
	OnKill func(reason string)

	released bool
}

// Request asks for one container.
type Request struct {
	MemMB     int
	Preferred []topology.NodeID // locality hints, best effort
	// Avoid lists nodes the RM must never grant this request. Unlike
	// Preferred it is a hard constraint: if only avoided nodes have
	// capacity the request waits in queue. The AM sets it on the
	// re-request after a grant bounced off an avoided node (a reduce
	// restarting away from the node it starved on) — without it, that
	// bounce (release + re-request inside the same serve pass) repeats
	// forever when the avoided node is the only one with free memory.
	Avoid    []topology.NodeID
	Priority int // higher is served first
	Grant    func(*Container)

	seq   uint64
	index int
}

// avoids reports whether id is on the request's hard-avoid list.
func (r *Request) avoids(id topology.NodeID) bool {
	for _, a := range r.Avoid {
		if a == id {
			return true
		}
	}
	return false
}

// requestQueue is a priority queue: higher Priority first, FIFO within a
// priority level.
type requestQueue []*Request

func (q requestQueue) Len() int { return len(q) }
func (q requestQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	return q[i].seq < q[j].seq
}
func (q requestQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *requestQueue) Push(x interface{}) {
	r := x.(*Request)
	r.index = len(*q)
	*q = append(*q, r)
}
func (q *requestQueue) Pop() interface{} {
	old := *q
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return r
}

// nodeState is the RM's view of one node.
type nodeState struct {
	id            topology.NodeID
	alive         bool // process liveness (false after Crash)
	networkUp     bool
	freeMemMB     int
	containers    map[*Container]struct{}
	lastHeartbeat sim.Time
	declaredLost  bool
}

// Options configures the control plane.
type Options struct {
	HeartbeatInterval sim.Time
	NodeExpiry        sim.Time
}

// Cluster bundles the substrate models with the YARN control plane.
type Cluster struct {
	Eng   *sim.Engine
	Topo  *topology.Topology
	Net   *simnet.Network
	Disks *simdisk.Disks
	DFS   *dfs.DFS

	opt    Options
	nodes  []*nodeState
	queue  requestQueue
	seq    uint64
	nextID int
	rrNext int // round-robin cursor for spreading allocations

	lostListeners  []func(topology.NodeID)
	reachListeners []func(topology.NodeID, bool)

	// Instrumentation handles; nil until SetMetrics (all nil-safe).
	mNodesLost     *metrics.Counter
	mNodesRestored *metrics.Counter
	mGrants        *metrics.Counter
	mQueueDepth    *metrics.Gauge
}

// SetMetrics attaches a registry to the control plane and its substrate
// models (network, disks). With a shared cluster the last-attached
// registry wins; single-job runs attach exactly one.
func (c *Cluster) SetMetrics(reg *metrics.Registry) {
	c.mNodesLost = reg.Counter("alm_cluster_nodes_lost_total")
	c.mNodesRestored = reg.Counter("alm_cluster_nodes_restored_total")
	c.mGrants = reg.Counter("alm_cluster_containers_granted_total")
	c.mQueueDepth = reg.Gauge("alm_cluster_request_queue_depth")
	c.Net.SetMetrics(reg)
	c.Disks.SetMetrics(reg)
}

// AddNodeLostListener subscribes an additional node-loss observer (several
// AppMasters can share one cluster).
func (c *Cluster) AddNodeLostListener(fn func(topology.NodeID)) {
	c.lostListeners = append(c.lostListeners, fn)
}

// AddReachabilityListener subscribes to node reachability transitions,
// fired synchronously the instant NodeReachable(id) changes value
// (StopNetwork/Crash going down, Restore coming back). Components that
// cache "which host serves X" decisions — the reducers' fetch index —
// use this instead of polling NodeReachable on every event.
func (c *Cluster) AddReachabilityListener(fn func(id topology.NodeID, reachable bool)) {
	c.reachListeners = append(c.reachListeners, fn)
}

func (c *Cluster) notifyReachability(id topology.NodeID, reachable bool) {
	for _, fn := range c.reachListeners {
		fn(id, reachable)
	}
}

// New builds a cluster over a fresh substrate for the given topology.
func New(e *sim.Engine, topo *topology.Topology, opt Options) *Cluster {
	net := simnet.New(e, topo)
	disks := simdisk.New(e, topo, net.System())
	c := &Cluster{
		Eng:   e,
		Topo:  topo,
		Net:   net,
		Disks: disks,
		DFS:   dfs.New(e, topo, net, disks),
		opt:   opt,
	}
	for _, n := range topo.Nodes() {
		c.nodes = append(c.nodes, &nodeState{
			id:         n.ID,
			alive:      true,
			networkUp:  true,
			freeMemMB:  n.HW.MemoryMB,
			containers: make(map[*Container]struct{}),
		})
	}
	if opt.HeartbeatInterval > 0 && opt.NodeExpiry > 0 {
		e.Post(opt.HeartbeatInterval, c.heartbeatTick)
	}
	return c
}

// heartbeatTick simulates the RM's liveness monitor: nodes whose network
// is up refresh their heartbeat; nodes silent for NodeExpiry are declared
// lost exactly once.
func (c *Cluster) heartbeatTick() {
	now := c.Eng.Now()
	for _, n := range c.nodes {
		if n.alive && n.networkUp {
			n.lastHeartbeat = now
			continue
		}
		if !n.declaredLost && now-n.lastHeartbeat >= c.opt.NodeExpiry {
			c.declareLost(n)
		}
	}
	c.Eng.Post(c.opt.HeartbeatInterval, c.heartbeatTick)
}

func (c *Cluster) declareLost(n *nodeState) {
	n.declaredLost = true
	c.mNodesLost.Inc()
	// Kill every container on the node; their resources return to the
	// node's (now unusable) pool.
	for ct := range n.containers {
		ct.released = true
		if ct.OnKill != nil {
			ct.OnKill("node lost")
		}
	}
	n.containers = make(map[*Container]struct{})
	n.freeMemMB = c.Topo.Node(n.id).HW.MemoryMB
	for _, fn := range c.lostListeners {
		fn(n.id)
	}
}

// NodeUsable reports whether the RM will place containers on the node.
func (c *Cluster) NodeUsable(id topology.NodeID) bool {
	n := c.nodes[id]
	return n.alive && n.networkUp && !n.declaredLost
}

// NodeReachable reports whether the node can communicate (its process may
// still be running even when unreachable).
func (c *Cluster) NodeReachable(id topology.NodeID) bool {
	return c.nodes[id].alive && c.nodes[id].networkUp
}

// NodeAlive reports process liveness: false only after Crash.
func (c *Cluster) NodeAlive(id topology.NodeID) bool { return c.nodes[id].alive }

// StopNetwork makes the node unreachable ("stop the network services on a
// node", the paper's node-failure injection): heartbeats cease, in-flight
// transfers stall, local disk contents survive but cannot be served.
func (c *Cluster) StopNetwork(id topology.NodeID) {
	n := c.nodes[id]
	if !n.networkUp {
		return
	}
	n.networkUp = false
	c.Net.SetNodeDown(id)
	c.notifyReachability(id, false)
}

// Crash kills the node process outright: unreachable, and its DFS
// replicas and local files are gone.
func (c *Cluster) Crash(id topology.NodeID) {
	c.StopNetwork(id)
	n := c.nodes[id]
	if !n.alive {
		return
	}
	n.alive = false
	c.DFS.NodeLost(id)
}

// SlowDisks degrades a node's disk bandwidth by the factor (a faulty but
// responsive node). The node keeps heartbeating and hosting containers;
// only its I/O suffers.
func (c *Cluster) SlowDisks(id topology.NodeID, factor float64) {
	c.Disks.Degrade(id, factor)
}

// RestoreDisks heals a degraded node's disks back to hardware rate.
func (c *Cluster) RestoreDisks(id topology.NodeID) {
	c.Disks.Heal(id)
}

// Restore brings a stopped node back: the network heals, heartbeats
// resume (the liveness timer resets), DFS placement re-admits the node,
// and queued container requests get a chance at its capacity.
//
// A partition that heals before the RM declares the node lost keeps its
// running containers — only when the process died or the RM already
// expired the node (killing its containers) does the memory pool reset.
// Resetting unconditionally would double-count memory: a surviving
// container's Release would credit capacity that Restore already
// returned.
func (c *Cluster) Restore(id topology.NodeID) {
	n := c.nodes[id]
	wasReachable := n.alive && n.networkUp
	if !n.alive || n.declaredLost {
		for ct := range n.containers {
			ct.released = true
			if ct.OnKill != nil {
				ct.OnKill("node restarted")
			}
		}
		n.containers = make(map[*Container]struct{})
		n.freeMemMB = c.Topo.Node(id).HW.MemoryMB
	}
	n.alive = true
	n.networkUp = true
	n.declaredLost = false
	n.lastHeartbeat = c.Eng.Now()
	c.Net.SetNodeUp(id)
	c.DFS.NodeRecovered(id)
	if !wasReachable {
		c.mNodesRestored.Inc()
		c.notifyReachability(id, true)
	}
	c.Eng.Post(0, c.serve)
}

// Allocate submits a container request; Grant is called (possibly at a
// later virtual time) when capacity is found. Returns a cancel function.
func (c *Cluster) Allocate(req *Request) (cancel func()) {
	if req.MemMB <= 0 || req.Grant == nil {
		panic("cluster: malformed container request")
	}
	c.seq++
	req.seq = c.seq
	heap.Push(&c.queue, req)
	// Serve asynchronously so the grant never re-enters the caller's
	// stack frame.
	c.Eng.Post(0, c.serve)
	canceled := false
	return func() {
		if canceled || req.index < 0 {
			return
		}
		canceled = true
		for i, r := range c.queue {
			if r == req {
				heap.Remove(&c.queue, i)
				return
			}
		}
	}
}

// serve grants as many queued requests as capacity allows, in priority
// order.
func (c *Cluster) serve() {
	for c.queue.Len() > 0 {
		req := c.queue[0]
		node, ok := c.pickNode(req)
		if !ok {
			break // head-of-line blocks: strict priority order
		}
		heap.Pop(&c.queue)
		req.index = -1
		n := c.nodes[node]
		n.freeMemMB -= req.MemMB
		c.nextID++
		ct := &Container{ID: c.nextID, Node: node, MemMB: req.MemMB}
		n.containers[ct] = struct{}{}
		c.mGrants.Inc()
		req.Grant(ct)
	}
	c.mQueueDepth.Set(float64(c.queue.Len()))
}

// pickNode chooses a usable node with capacity, honouring preferences
// and hard Avoid constraints, then spreading round-robin.
func (c *Cluster) pickNode(req *Request) (topology.NodeID, bool) {
	for _, p := range req.Preferred {
		if !req.avoids(p) && c.NodeUsable(p) && c.nodes[p].freeMemMB >= req.MemMB {
			return p, true
		}
	}
	total := len(c.nodes)
	for i := 0; i < total; i++ {
		id := topology.NodeID((c.rrNext + i) % total)
		if !req.avoids(id) && c.NodeUsable(id) && c.nodes[id].freeMemMB >= req.MemMB {
			c.rrNext = (int(id) + 1) % total
			return id, true
		}
	}
	return topology.Invalid, false
}

// Release returns a container's resources and retries queued requests.
func (c *Cluster) Release(ct *Container) {
	if ct.released {
		return
	}
	ct.released = true
	n := c.nodes[ct.Node]
	delete(n.containers, ct)
	n.freeMemMB += ct.MemMB
	c.Eng.Post(0, c.serve)
}

// FreeMemMB reports a node's unallocated memory (test/diagnostic hook).
func (c *Cluster) FreeMemMB(id topology.NodeID) int { return c.nodes[id].freeMemMB }

// ContainersOn reports how many containers run on a node.
func (c *Cluster) ContainersOn(id topology.NodeID) int { return len(c.nodes[id].containers) }

// QueueLen reports pending container requests.
func (c *Cluster) QueueLen() int { return c.queue.Len() }

// CheckConservation verifies the resource-accounting identity on every
// node: free memory plus the memory of tracked containers equals hardware
// memory, and no tracked container is marked released. The chaos harness
// asserts this after every run — a heal-path double-count (the bug class
// Restore's guarded reset prevents) breaks it immediately.
func (c *Cluster) CheckConservation() error {
	for _, n := range c.nodes {
		used := 0
		for ct := range n.containers {
			if ct.released {
				return fmt.Errorf("cluster: node %d tracks released container %d", n.id, ct.ID)
			}
			used += ct.MemMB
		}
		if hw := c.Topo.Node(n.id).HW.MemoryMB; n.freeMemMB+used != hw {
			return fmt.Errorf("cluster: node %d memory leak: free %d + used %d != hw %d",
				n.id, n.freeMemMB, used, hw)
		}
	}
	return nil
}

// String summarises cluster state for debugging.
func (c *Cluster) String() string {
	up := 0
	for _, n := range c.nodes {
		if n.alive && n.networkUp {
			up++
		}
	}
	return fmt.Sprintf("cluster{nodes=%d up=%d queued=%d}", len(c.nodes), up, c.queue.Len())
}

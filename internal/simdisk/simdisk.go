// Package simdisk models per-node local storage bandwidth.
//
// Each node has a read port and a write port (SSDs sustain concurrent
// reads and writes at near-full rate, so the two directions contend only
// with themselves). Requests share each port max-min fairly via the
// fairshare system — a node whose disk is saturated by merge spills slows
// every other I/O on that node, which is exactly the contention effect
// the paper's FCM design exploits.
package simdisk

import (
	"fmt"
	"strconv"

	"alm/internal/fairshare"
	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/topology"
)

// Disks is the disk model for all nodes of a cluster.
type Disks struct {
	eng   *sim.Engine
	sys   *fairshare.System
	read  []*fairshare.Port
	write []*fairshare.Port

	// baseRead/baseWrite remember hardware rates so a degraded node
	// (Degrade) can be restored (Heal) without consulting the topology.
	baseRead  []float64
	baseWrite []float64

	// BytesRead/BytesWritten accumulate per-node traffic. Diagnostic only.
	BytesRead    []int64
	BytesWritten []int64

	// Optional instrumentation (SetMetrics): per-node byte counters,
	// created lazily so idle disks never appear in snapshots.
	mreg   *metrics.Registry
	names  []string
	readC  []*metrics.Counter
	writeC []*metrics.Counter

	// Per-node flow names, rendered once at construction: disk ops are
	// among the hottest flow starts in a run, and their names only vary by
	// node. portScratch backs the 1–2 element port lists handed to
	// StartFlow, which copies them.
	writeName   []string
	mergeName   []string
	portScratch []*fairshare.Port
}

// New builds the disk model. It shares the fair-share system with the
// network so composite flows (e.g., a remote read that crosses a disk and
// two NICs) are possible.
func New(e *sim.Engine, topo *topology.Topology, sys *fairshare.System) *Disks {
	if sys == nil {
		sys = fairshare.NewSystem(e)
	}
	d := &Disks{
		eng:          e,
		sys:          sys,
		read:         make([]*fairshare.Port, topo.NumNodes()),
		write:        make([]*fairshare.Port, topo.NumNodes()),
		baseRead:     make([]float64, topo.NumNodes()),
		baseWrite:    make([]float64, topo.NumNodes()),
		BytesRead:    make([]int64, topo.NumNodes()),
		BytesWritten: make([]int64, topo.NumNodes()),
	}
	for _, node := range topo.Nodes() {
		d.read[node.ID] = sys.NewPort(fmt.Sprintf("%s/disk-r", node.Name), node.HW.DiskReadBW)
		d.write[node.ID] = sys.NewPort(fmt.Sprintf("%s/disk-w", node.Name), node.HW.DiskWriteBW)
		d.baseRead[node.ID] = node.HW.DiskReadBW
		d.baseWrite[node.ID] = node.HW.DiskWriteBW
		d.names = append(d.names, node.Name)
		id := strconv.Itoa(int(node.ID))
		d.writeName = append(d.writeName, "dwrite:"+id)
		d.mergeName = append(d.mergeName, "dmerge:"+id)
	}
	return d
}

// SetMetrics attaches a registry: subsequent I/O counts per-node bytes
// as alm_disk_read_bytes_total{node} / alm_disk_write_bytes_total{node}.
func (d *Disks) SetMetrics(reg *metrics.Registry) {
	d.mreg = reg
	d.readC = make([]*metrics.Counter, len(d.read))
	d.writeC = make([]*metrics.Counter, len(d.write))
}

func (d *Disks) countRead(id topology.NodeID, bytes int64) {
	if d.mreg == nil {
		return
	}
	if d.readC[id] == nil {
		d.readC[id] = d.mreg.Counter("alm_disk_read_bytes_total", "node", d.names[id])
	}
	d.readC[id].Add(float64(bytes))
}

func (d *Disks) countWrite(id topology.NodeID, bytes int64) {
	if d.mreg == nil {
		return
	}
	if d.writeC[id] == nil {
		d.writeC[id] = d.mreg.Counter("alm_disk_write_bytes_total", "node", d.names[id])
	}
	d.writeC[id].Add(float64(bytes))
}

// Degrade scales a node's disk bandwidth to factor of hardware rate — the
// paper's "faulty node" that is responsive but very slow in I/O. A
// non-positive factor is clamped to 1% rather than zero so in-flight I/O
// crawls instead of deadlocking.
func (d *Disks) Degrade(id topology.NodeID, factor float64) {
	if factor <= 0 {
		factor = 0.01
	}
	d.read[id].SetCapacity(d.baseRead[id] * factor)
	d.write[id].SetCapacity(d.baseWrite[id] * factor)
}

// Heal restores a node's disks to hardware rate.
func (d *Disks) Heal(id topology.NodeID) {
	d.read[id].SetCapacity(d.baseRead[id])
	d.write[id].SetCapacity(d.baseWrite[id])
}

// ReadPort returns a node's disk read port.
func (d *Disks) ReadPort(id topology.NodeID) *fairshare.Port { return d.read[id] }

// WritePort returns a node's disk write port.
func (d *Disks) WritePort(id topology.NodeID) *fairshare.Port { return d.write[id] }

// Write charges a local disk write of the given size and calls done when
// it completes.
func (d *Disks) Write(id topology.NodeID, bytes int64, done func()) *fairshare.Flow {
	d.BytesWritten[id] += bytes
	d.countWrite(id, bytes)
	ports := append(d.portScratch[:0], d.write[id])
	f := d.sys.StartFlow(d.writeName[id], bytes, ports, 0, done)
	d.portScratch = ports[:0]
	return f
}

// ReadWrite charges a combined read-modify-write (e.g., an on-disk merge
// pass reads inputs and writes the merged output concurrently): a single
// flow of the given size crossing both the read and write ports.
func (d *Disks) ReadWrite(id topology.NodeID, bytes int64, done func()) *fairshare.Flow {
	d.BytesRead[id] += bytes
	d.BytesWritten[id] += bytes
	d.countRead(id, bytes)
	d.countWrite(id, bytes)
	ports := append(d.portScratch[:0], d.read[id], d.write[id])
	f := d.sys.StartFlow(d.mergeName[id], bytes, ports, 0, done)
	d.portScratch = ports[:0]
	return f
}

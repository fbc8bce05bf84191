// Package dfs is an HDFS-like replicated block store over the simulated
// cluster. It provides what the MapReduce runtime needs from HDFS:
//
//   - pre-loaded input files split into blocks with replica placement,
//   - locality-aware reads (local replica > rack replica > remote),
//   - pipelined replicated writes for reduce output and ALG log records,
//     with node-, rack- or cluster-scoped placement (paper Fig. 13),
//   - replica loss when a node crashes.
//
// Time is charged through the simdisk and simnet models: a replicated
// write is a single fair-share flow crossing the writer's disk, the
// network path to each replica, and each replica's disk — i.e., a write
// pipeline whose throughput is the minimum along the chain, as in HDFS.
package dfs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"alm/internal/fairshare"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/simdisk"
	"alm/internal/simnet"
	"alm/internal/topology"
)

// Common errors.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrNoReplica   = errors.New("dfs: no live replica")
	ErrExists      = errors.New("dfs: file already exists")
	ErrWriterDown  = errors.New("dfs: writer node is down")
	ErrNoPlacement = errors.New("dfs: no live node available for replica placement")
)

// Block is one replicated extent of a file.
type Block struct {
	File     string
	Index    int
	Bytes    int64
	Replicas []topology.NodeID

	// flowName caches the read-flow label ("dfsread:<file>/<index>"),
	// rendered on first read; blocks are re-read on every task retry.
	flowName string
}

// File is a named sequence of blocks.
type File struct {
	Name   string
	Blocks []*Block
}

// Bytes returns the file's total size.
func (f *File) Bytes() int64 {
	var n int64
	for _, b := range f.Blocks {
		n += b.Bytes
	}
	return n
}

// DFS is the distributed filesystem for one simulated cluster.
type DFS struct {
	eng   *sim.Engine
	topo  *topology.Topology
	net   *simnet.Network
	disks *simdisk.Disks
	files map[string]*File
	alive []bool

	// PipelineTimeout is how long a write pipeline may stall before the
	// client replaces dead datanodes and continues (HDFS pipeline
	// recovery). Default 30s.
	PipelineTimeout time.Duration

	// BytesWritten counts committed (post-replication) bytes, diagnostic.
	BytesWritten int64
}

// New builds a DFS over the given substrate models.
func New(e *sim.Engine, topo *topology.Topology, net *simnet.Network, disks *simdisk.Disks) *DFS {
	alive := make([]bool, topo.NumNodes())
	for i := range alive {
		alive[i] = true
	}
	return &DFS{
		eng: e, topo: topo, net: net, disks: disks,
		files: make(map[string]*File), alive: alive,
		PipelineTimeout: 30 * time.Second,
	}
}

// NodeLost discards all replicas stored on the node (crash semantics).
func (d *DFS) NodeLost(id topology.NodeID) {
	d.alive[id] = false
	for _, f := range d.files {
		for _, b := range f.Blocks {
			out := b.Replicas[:0]
			for _, r := range b.Replicas {
				if r != id {
					out = append(out, r)
				}
			}
			b.Replicas = out
		}
	}
}

// NodeRecovered marks the node usable for future placement (its old
// replicas stay lost, as after an HDFS datanode re-format).
func (d *DFS) NodeRecovered(id topology.NodeID) { d.alive[id] = true }

// Exists reports whether the named file is committed.
func (d *DFS) Exists(name string) bool { _, ok := d.files[name]; return ok }

// Lookup returns the named file.
func (d *DFS) Lookup(name string) (*File, error) {
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f, nil
}

// Delete removes a file. Missing files are ignored.
func (d *DFS) Delete(name string) { delete(d.files, name) }

// AddFile registers a pre-loaded input file of the given size, split into
// blockSize blocks, each with `replication` replicas placed like HDFS
// (first replica round-robin across nodes, second on a different rack,
// third on the second's rack). No virtual time is charged — the data was
// loaded before the job started.
func (d *DFS) AddFile(name string, bytes, blockSize int64, replication int) (*File, error) {
	if d.Exists(name) {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if bytes <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("dfs: AddFile %s: sizes must be positive (bytes=%d blockSize=%d)", name, bytes, blockSize)
	}
	f := &File{Name: name}
	rng := d.eng.Rand()
	idx := 0
	for off := int64(0); off < bytes; off += blockSize {
		sz := blockSize
		if off+sz > bytes {
			sz = bytes - off
		}
		primary := topology.NodeID(idx % d.topo.NumNodes())
		replicas, err := d.place(primary, replication, mr.ReplicateCluster, rng)
		if err != nil {
			return nil, err
		}
		f.Blocks = append(f.Blocks, &Block{File: name, Index: idx, Bytes: sz, Replicas: replicas})
		idx++
	}
	d.files[name] = f
	return f, nil
}

// usable reports whether a node can serve as a replica target: process
// alive and network reachable.
func (d *DFS) usable(id topology.NodeID) bool {
	return d.alive[id] && !d.net.NodeDown(id)
}

// place chooses replica nodes starting from primary, honouring the scope.
func (d *DFS) place(primary topology.NodeID, n int, scope mr.ReplicationLevel, rng interface{ Intn(int) int }) ([]topology.NodeID, error) {
	if !d.usable(primary) {
		// Fall back to any live node as primary (HDFS picks another
		// datanode when the local one is unavailable).
		found := false
		for _, node := range d.topo.Nodes() {
			if d.usable(node.ID) {
				primary = node.ID
				found = true
				break
			}
		}
		if !found {
			return nil, ErrNoPlacement
		}
	}
	if n <= 1 || scope == mr.ReplicateNode {
		return []topology.NodeID{primary}, nil
	}
	replicas := make([]topology.NodeID, 1, min(n, len(d.topo.Nodes())))
	replicas[0] = primary
	for len(replicas) < n {
		class := anyRack
		switch {
		case scope == mr.ReplicateRack:
			class = sameRack
		case len(replicas) == 1:
			class = offRack // HDFS default: second replica off-rack
		}
		id, ok := d.drawReplica(replicas, class, rng)
		if !ok && class == offRack {
			id, ok = d.drawReplica(replicas, anyRack, rng)
		}
		if !ok {
			break // fewer live nodes than requested replicas: best effort
		}
		replicas = append(replicas, id)
	}
	return replicas, nil
}

// placeClass narrows a replica's candidates by rack, relative to the
// primary replica.
type placeClass uint8

const (
	anyRack placeClass = iota
	sameRack
	offRack
)

// drawReplica draws the next replica uniformly from the usable nodes of
// class not in chosen (chosen[0] is the primary), in node order. It
// counts the candidates, draws an index and walks to it, so no pool is
// built; it draws nothing when there is no candidate.
func (d *DFS) drawReplica(chosen []topology.NodeID, class placeClass, rng interface{ Intn(int) int }) (topology.NodeID, bool) {
	count := 0
	for _, node := range d.topo.Nodes() {
		if d.candidate(node.ID, chosen, class) {
			count++
		}
	}
	if count == 0 {
		return topology.Invalid, false
	}
	k := rng.Intn(count)
	for _, node := range d.topo.Nodes() {
		if d.candidate(node.ID, chosen, class) {
			if k == 0 {
				return node.ID, true
			}
			k--
		}
	}
	panic("dfs: replica candidates changed during a draw")
}

// candidate reports whether id may hold the next replica: usable, not
// chosen yet, and in class.
func (d *DFS) candidate(id topology.NodeID, chosen []topology.NodeID, class placeClass) bool {
	if !d.usable(id) || slices.Contains(chosen, id) {
		return false
	}
	switch class {
	case sameRack:
		return d.topo.SameRack(id, chosen[0])
	case offRack:
		return !d.topo.SameRack(id, chosen[0])
	}
	return true
}

// readSource returns the best live replica for a reader: local, then
// same-rack, then any.
func (d *DFS) readSource(b *Block, reader topology.NodeID) (topology.NodeID, error) {
	best := topology.Invalid
	bestScore := -1
	for _, r := range b.Replicas {
		if !d.alive[r] || d.net.NodeDown(r) {
			continue
		}
		score := 0
		if d.topo.SameRack(r, reader) {
			score = 1
		}
		if r == reader {
			score = 2
		}
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	if best == topology.Invalid {
		return topology.Invalid, ErrNoReplica
	}
	return best, nil
}

// ReadBlock streams one block to the reader node, invoking done when the
// last byte lands. The flow crosses the source disk read port plus the
// network path when the source is remote.
func (d *DFS) ReadBlock(b *Block, reader topology.NodeID, done func(err error)) (*fairshare.Flow, error) {
	src, err := d.readSource(b, reader)
	if err != nil {
		return nil, err
	}
	ports := d.net.AppendPortsFor([]*fairshare.Port{d.disks.ReadPort(src)}, src, reader)
	if b.flowName == "" {
		b.flowName = "dfsread:" + b.File + "/" + strconv.Itoa(b.Index)
	}
	f := d.net.System().StartFlow(b.flowName, b.Bytes, ports, 0, func() {
		if done != nil {
			done(nil)
		}
	})
	return f, nil
}

// Read streams a whole file to the reader node (blocks sequentially).
func (d *DFS) Read(name string, reader topology.NodeID, done func(err error)) error {
	f, err := d.Lookup(name)
	if err != nil {
		return err
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(f.Blocks) {
			if done != nil {
				done(nil)
			}
			return
		}
		_, err := d.ReadBlock(f.Blocks[i], reader, func(berr error) {
			if berr != nil {
				if done != nil {
					done(berr)
				}
				return
			}
			step(i + 1)
		})
		if err != nil && done != nil {
			done(err)
		}
	}
	step(0)
	return nil
}

// WriteOptions configures a pipelined write.
type WriteOptions struct {
	Replication int
	Scope       mr.ReplicationLevel
	// Priority caps the write's rate (bytes/s); <= 0 means uncapped.
	Priority float64
}

// StreamWriter is an open HDFS output stream: replicas are chosen at open
// time and every Append charges the same write pipeline, like an HDFS
// block pipeline. Commit registers the file once all appends land.
type StreamWriter struct {
	d               *DFS
	name            string
	appendName      string // "dfsappend:<name>", rendered once at open
	writer          topology.NodeID
	replicas        []topology.NodeID
	ports           []*fairshare.Port
	priority        float64
	written         int64
	pending         int
	flows           []*fairshare.Flow
	commit          func(error)
	commitRequested bool
	committed       bool
	aborted         bool
	syncWaiters     []func()
}

// OpenWrite starts a streaming write. Replica placement happens now.
func (d *DFS) OpenWrite(name string, writer topology.NodeID, opt WriteOptions) (*StreamWriter, error) {
	if !d.alive[writer] || d.net.NodeDown(writer) {
		return nil, ErrWriterDown
	}
	if d.Exists(name) {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if opt.Replication < 1 {
		opt.Replication = 1
	}
	replicas, err := d.place(writer, opt.Replication, opt.Scope, d.eng.Rand())
	if err != nil {
		return nil, err
	}
	w := &StreamWriter{d: d, name: name, appendName: "dfsappend:" + name, writer: writer, replicas: replicas, priority: opt.Priority}
	for _, r := range replicas {
		w.ports = append(w.ports, d.disks.WritePort(r))
		if r != writer {
			w.ports = append(w.ports, d.net.PortsFor(writer, r)...)
		}
	}
	return w, nil
}

// Replicas returns the stream's replica placement.
func (w *StreamWriter) Replicas() []topology.NodeID { return w.replicas }

// Written returns bytes appended so far (including in-flight).
func (w *StreamWriter) Written() int64 { return w.written }

// Append charges one pipelined write of the given size; done (optional)
// runs when this append lands. If the pipeline stalls (a replica died),
// the client performs HDFS-style pipeline recovery after PipelineTimeout:
// dead datanodes are dropped and the remaining bytes continue over the
// surviving pipeline.
func (w *StreamWriter) Append(bytes int64, done func()) {
	if w.aborted || bytes <= 0 {
		if done != nil {
			w.d.eng.Schedule(0, done)
		}
		return
	}
	w.written += bytes
	w.pending++
	w.startAppendFlow(bytes, done)
}

func (w *StreamWriter) startAppendFlow(bytes int64, done func()) {
	f := w.d.net.System().StartFlow(w.appendName, bytes, w.ports, w.priority, func() {
		w.pending--
		if done != nil {
			done()
		}
		w.drainSyncWaiters()
		w.maybeFinishCommit()
	})
	w.flows = append(w.flows, f)
	w.watchAppend(f, f.Remaining(), done)
}

// watchAppend monitors one append flow; when it makes no progress for the
// pipeline timeout, the pipeline is rebuilt without the dead replicas and
// the flow's remaining bytes are restarted.
func (w *StreamWriter) watchAppend(f *fairshare.Flow, lastRemaining float64, done func()) {
	w.d.eng.Schedule(w.d.PipelineTimeout, func() {
		if w.aborted || f.Done() || f.Canceled() {
			return
		}
		rem := f.Remaining()
		if rem < lastRemaining-1 {
			w.watchAppend(f, rem, done)
			return
		}
		// Stalled: drop unreachable replicas and continue. If the writer
		// itself is dead the stream stays stalled (its task is doomed and
		// will be torn down by the AM).
		if w.d.net.NodeDown(w.writer) || !w.d.alive[w.writer] {
			w.watchAppend(f, rem, done)
			return
		}
		// Rebuild if any replica died, then restart this flow's remaining
		// bytes on the current pipeline (other stalled appends restart
		// the same way when their own watchdogs fire).
		w.rebuildPipeline()
		f.Cancel()
		w.startAppendFlow(int64(rem), done)
	})
}

// rebuildPipeline recomputes replicas/ports, dropping dead nodes. It
// reports whether anything changed.
func (w *StreamWriter) rebuildPipeline() bool {
	live := w.replicas[:0:0]
	for _, r := range w.replicas {
		if w.d.alive[r] && !w.d.net.NodeDown(r) {
			live = append(live, r)
		}
	}
	if len(live) == len(w.replicas) {
		return false
	}
	if len(live) == 0 {
		live = []topology.NodeID{w.writer}
	}
	w.replicas = live
	w.ports = w.ports[:0]
	for _, r := range w.replicas {
		w.ports = append(w.ports, w.d.disks.WritePort(r))
		if r != w.writer {
			w.ports = append(w.ports, w.d.net.PortsFor(w.writer, r)...)
		}
	}
	return true
}

// Sync invokes done once every append issued so far has landed on all
// replicas (an HDFS hflush/hsync). Aborting the stream drops the waiter.
func (w *StreamWriter) Sync(done func()) {
	if done == nil {
		return
	}
	if w.pending == 0 || w.aborted {
		w.d.eng.Schedule(0, done)
		return
	}
	w.syncWaiters = append(w.syncWaiters, done)
}

func (w *StreamWriter) drainSyncWaiters() {
	if w.pending > 0 || len(w.syncWaiters) == 0 {
		return
	}
	waiters := w.syncWaiters
	w.syncWaiters = nil
	for _, fn := range waiters {
		fn()
	}
}

// Commit registers the file once every outstanding append has landed.
func (w *StreamWriter) Commit(done func(error)) {
	if w.aborted {
		if done != nil {
			done(fmt.Errorf("dfs: commit of aborted stream %s", w.name))
		}
		return
	}
	w.commit = done
	w.commitRequested = true
	w.maybeFinishCommit()
}

func (w *StreamWriter) maybeFinishCommit() {
	if !w.commitRequested || w.committed || w.pending > 0 || w.aborted {
		return
	}
	// Committing is a NameNode RPC: a writer whose network died cannot
	// complete it even if its local replica finished. Retry until the
	// node recovers or the stream is aborted.
	if w.d.net.NodeDown(w.writer) || !w.d.alive[w.writer] {
		w.d.eng.Schedule(w.d.PipelineTimeout, w.maybeFinishCommit)
		return
	}
	w.committed = true
	w.d.files[w.name] = &File{Name: w.name, Blocks: []*Block{{File: w.name, Index: 0, Bytes: w.written, Replicas: w.replicas}}}
	w.d.BytesWritten += w.written * int64(len(w.replicas))
	if cb := w.commit; cb != nil {
		w.commit = nil
		cb(nil)
	}
}

// Abort cancels outstanding appends and prevents the commit.
func (w *StreamWriter) Abort() {
	w.aborted = true
	for _, f := range w.flows {
		f.Cancel()
	}
	w.flows = nil
}

// Write streams bytes from the writer node into a new file with the given
// replica placement, calling done(err) at commit. The write is a single
// pipeline flow crossing writer disk + each remote path + remote disks.
// Returns the chosen replica set synchronously.
func (d *DFS) Write(name string, writer topology.NodeID, bytes int64, opt WriteOptions, done func(err error)) ([]topology.NodeID, error) {
	w, err := d.OpenWrite(name, writer, opt)
	if err != nil {
		return nil, err
	}
	w.Append(bytes, nil)
	w.Commit(done)
	return w.Replicas(), nil
}

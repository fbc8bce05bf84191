package dfs

import (
	"errors"
	"testing"
	"time"

	"alm/internal/mr"
)

func TestStreamWriterAppendCommit(t *testing.T) {
	e, _, _, _, d := rig(1, 3)
	w, err := d.OpenWrite("out", 0, WriteOptions{Replication: 2, Scope: mr.ReplicateRack})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	w.Append(500, func() { appended++ })
	w.Append(500, func() { appended++ })
	committed := false
	w.Commit(func(err error) {
		if err != nil {
			t.Errorf("commit err: %v", err)
		}
		committed = true
	})
	e.RunAll()
	if appended != 2 || !committed {
		t.Fatalf("appended=%d committed=%v", appended, committed)
	}
	f, err := d.Lookup("out")
	if err != nil || f.Bytes() != 1000 {
		t.Fatalf("committed file: %v %v", f, err)
	}
}

func TestStreamWriterCommitWithNilCallback(t *testing.T) {
	e, _, _, _, d := rig(1, 2)
	w, _ := d.OpenWrite("out", 0, WriteOptions{Replication: 1})
	w.Append(100, nil)
	w.Commit(nil)
	e.RunAll()
	if !d.Exists("out") {
		t.Fatal("Commit(nil) should still register the file")
	}
}

func TestStreamWriterZeroAppend(t *testing.T) {
	e, _, _, _, d := rig(1, 2)
	w, _ := d.OpenWrite("out", 0, WriteOptions{Replication: 1})
	ran := false
	w.Append(0, func() { ran = true })
	e.RunAll()
	if !ran {
		t.Fatal("zero-byte append callback should still run")
	}
}

func TestStreamWriterAbort(t *testing.T) {
	e, _, _, _, d := rig(1, 2)
	w, _ := d.OpenWrite("out", 0, WriteOptions{Replication: 1})
	w.Append(1000, nil)
	e.Run(time.Second)
	w.Abort()
	committed := false
	w.Commit(func(err error) {
		if err == nil {
			t.Error("commit after abort should error")
		}
		committed = true
	})
	e.RunAll()
	if !committed {
		t.Fatal("commit callback never ran")
	}
	if d.Exists("out") {
		t.Fatal("aborted stream must not register the file")
	}
}

func TestStreamWriterPipelineRecovery(t *testing.T) {
	// A replica dies mid-stream: after the pipeline timeout the client
	// drops it and the write completes on the survivors.
	e, _, net, _, d := rig(1, 4)
	w, err := d.OpenWrite("out", 0, WriteOptions{Replication: 2, Scope: mr.ReplicateRack})
	if err != nil {
		t.Fatal(err)
	}
	replicas := w.Replicas()
	if len(replicas) != 2 {
		t.Fatalf("replicas = %v", replicas)
	}
	committed := false
	w.Append(5000, nil) // 100s at the 50 B/s write bottleneck
	w.Commit(func(error) { committed = true })
	e.Run(10 * time.Second)
	net.SetNodeDown(replicas[1]) // kill the secondary replica
	e.Run(30 * time.Minute)
	if !committed {
		t.Fatalf("pipeline never recovered after replica death")
	}
	if got := len(w.Replicas()); got != 1 {
		t.Fatalf("surviving replicas = %d, want 1", got)
	}
}

func TestStreamWriterStallsWhenWriterDies(t *testing.T) {
	e, _, net, _, d := rig(1, 3)
	w, _ := d.OpenWrite("out", 0, WriteOptions{Replication: 1})
	committed := false
	w.Append(5000, nil)
	w.Commit(func(error) { committed = true })
	e.Run(5 * time.Second)
	net.SetNodeDown(0) // the writer itself
	e.Run(30 * time.Minute)
	if committed {
		t.Fatal("a stream whose writer died must not commit")
	}
}

func TestOpenWriteRejectsDuplicatesAndDeadWriters(t *testing.T) {
	_, _, net, _, d := rig(1, 2)
	if _, err := d.OpenWrite("dup", 0, WriteOptions{Replication: 1}); err != nil {
		t.Fatal(err)
	}
	// Name conflicts are detected against committed files only; commit
	// the first stream to trigger the conflict.
	w2, err := d.OpenWrite("dup", 0, WriteOptions{Replication: 1})
	if err != nil {
		t.Fatal(err) // both streams open is allowed (like HDFS tmp files)
	}
	_ = w2
	net.SetNodeDown(1)
	if _, err := d.OpenWrite("x", 1, WriteOptions{Replication: 1}); !errors.Is(err, ErrWriterDown) {
		t.Fatalf("err = %v, want ErrWriterDown", err)
	}
}

func TestPlacementAvoidsUnreachableNodes(t *testing.T) {
	_, topo, net, _, d := rig(1, 4)
	net.SetNodeDown(1)
	net.SetNodeDown(2)
	for i := 0; i < 10; i++ {
		w, err := d.OpenWrite(string(rune('a'+i)), 0, WriteOptions{Replication: 2, Scope: mr.ReplicateRack})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range w.Replicas() {
			if r == 1 || r == 2 {
				t.Fatalf("replica placed on unreachable node %d", r)
			}
		}
	}
	_ = topo
}

// TestStreamWriterTracksInFlightAppends: a long-lived writer (an ALG log,
// a reducer's output) appends thousands of times. Its list of flows must
// follow the appends in flight, not every append it ever issued.
func TestStreamWriterTracksInFlightAppends(t *testing.T) {
	e, _, _, _, d := rig(1, 2)
	w, _ := d.OpenWrite("out", 0, WriteOptions{Replication: 1})
	for i := 0; i < 1000; i++ {
		w.Append(50, nil)
		w.Append(50, nil)
		if len(w.flows) > 2 {
			t.Fatalf("append %d: writer holds %d flows with at most 2 in flight", 2*i+2, len(w.flows))
		}
		e.Run(e.Now() + 3*time.Second) // both land: 100 B at 50 B/s
	}
	w.Commit(nil)
	e.RunAll()
	if f, err := d.Lookup("out"); err != nil || f.Bytes() != 100_000 {
		t.Fatalf("committed file: %v %v", f, err)
	}
}

package droppederr

import (
	"alm/internal/core"
	"alm/internal/dfs"
	"alm/internal/topology"
)

func discardedResult(d *dfs.DFS, rec *core.LogRecord) {
	d.Write("e", 0, 1, dfs.WriteOptions{}, nil) // want `result error of .*Write is discarded`
	rec.Validate() // want `result error of .*Validate is discarded`
}

func blankError(d *dfs.DFS, rec *core.LogRecord) []topology.NodeID {
	_ = rec.Validate() // want `error from .*Validate assigned to _`
	replicas, _ := d.Write("f", 0, 1, dfs.WriteOptions{}, nil) // want `error from .*Write assigned to _`
	return replicas
}

func clobberedError(d *dfs.DFS) error {
	var err error
	_, err = d.Write("a", 0, 1, dfs.WriteOptions{}, nil) // want `error from .*Write is overwritten before being read`
	_, err = d.Write("b", 0, 1, dfs.WriteOptions{}, nil)
	return err
}

func swallowedCallback(d *dfs.DFS) error {
	_, err := d.Write("c", 0, 1, dfs.WriteOptions{}, func(error) {}) // want `callback passed to .*Write discards its error parameter`
	return err
}

func unusedCallbackParam(d *dfs.DFS) error {
	_, err := d.Write("d", 0, 1, dfs.WriteOptions{},
		func(werr error) { // want `callback passed to .*Write never reads error parameter "werr"`
			println("write landed")
		})
	return err
}

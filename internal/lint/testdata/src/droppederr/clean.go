package droppederr

import (
	"alm/internal/core"
	"alm/internal/dfs"
)

func handled(d *dfs.DFS, rec *core.LogRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if _, err := d.Write("x", 0, rec.EstimateSizeBytes(), dfs.WriteOptions{}, func(err error) {
		if err != nil {
			println("alg write failed:", err.Error())
		}
	}); err != nil {
		return err
	}
	return nil
}

// namedResult shows that assigning to a named result and returning bare
// counts as consuming the error.
func namedResult(d *dfs.DFS) (err error) {
	_, err = d.Write("y", 0, 1, dfs.WriteOptions{}, nil)
	return
}

// reassignedAfterRead is legal: the first error is checked before the
// variable is reused.
func reassignedAfterRead(d *dfs.DFS) error {
	_, err := d.Write("p", 0, 1, dfs.WriteOptions{}, nil)
	if err != nil {
		return err
	}
	_, err = d.Write("q", 0, 1, dfs.WriteOptions{}, nil)
	return err
}

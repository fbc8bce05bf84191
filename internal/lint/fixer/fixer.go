// Package fixer applies analysis.SuggestedFix text edits to source files
// and renders unified diffs, with no dependencies outside the standard
// library. It backs `almvet -fix` and the analysistest `.fixed` golden
// comparison, so both paths share one definition of how edits compose:
// per-fix atomicity, overlap rejection, and a mandatory gofmt pass on the
// result.
package fixer

import (
	"bytes"
	"fmt"
	"go/format"
	"go/token"
	"sort"

	"alm/internal/lint/analysis"
)

// edit is a SuggestedFix TextEdit resolved to byte offsets.
type edit struct {
	start, end int
	text       []byte
}

// Apply applies the first suggested fix of each diagnostic that targets
// filename and returns the gofmt-formatted result plus the number of
// fixes applied. Fixes are atomic: a fix whose edits overlap an already
// accepted edit (or fall outside filename) is skipped whole, never half
// applied. When no fix applies, src is returned unchanged (and unformatted).
func Apply(fset *token.FileSet, filename string, src []byte, diags []analysis.Diagnostic) ([]byte, int, error) {
	var accepted []edit
	applied := 0
	for _, d := range diags {
		if len(d.SuggestedFixes) == 0 {
			continue
		}
		fix := d.SuggestedFixes[0]
		resolved, ok := resolve(fset, filename, fix.TextEdits)
		if !ok {
			continue
		}
		if conflicts(accepted, resolved) {
			continue
		}
		accepted = append(accepted, resolved...)
		applied++
	}
	if applied == 0 {
		return src, 0, nil
	}

	sort.SliceStable(accepted, func(i, j int) bool {
		if accepted[i].start != accepted[j].start {
			return accepted[i].start < accepted[j].start
		}
		return accepted[i].end < accepted[j].end
	})

	var buf bytes.Buffer
	last := 0
	for _, e := range accepted {
		if e.start < last || e.end > len(src) {
			return nil, 0, fmt.Errorf("fixer: edit [%d,%d) out of order or out of range in %s", e.start, e.end, filename)
		}
		buf.Write(src[last:e.start])
		buf.Write(e.text)
		last = e.end
	}
	buf.Write(src[last:])

	out, err := format.Source(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("fixer: result of fixes does not parse (%v); raw:\n%s", err, buf.Bytes())
	}
	return out, applied, nil
}

// resolve maps the edits onto byte offsets within filename. It reports
// false when any edit lands in a different file or has an inverted range.
func resolve(fset *token.FileSet, filename string, edits []analysis.TextEdit) ([]edit, bool) {
	out := make([]edit, 0, len(edits))
	for _, te := range edits {
		tf := fset.File(te.Pos)
		if tf == nil || tf.Name() != filename {
			return nil, false
		}
		end := te.End
		if !end.IsValid() {
			end = te.Pos
		}
		if fset.File(end) != tf {
			return nil, false
		}
		start, stop := tf.Offset(te.Pos), tf.Offset(end)
		if stop < start {
			return nil, false
		}
		out = append(out, edit{start: start, end: stop, text: te.NewText})
	}
	return out, true
}

// conflicts reports whether any candidate edit overlaps an accepted one.
func conflicts(accepted, candidate []edit) bool {
	for _, c := range candidate {
		for _, a := range accepted {
			// Two ranges overlap unless one ends before the other starts.
			// Pure insertions (start == end) at the same point are treated
			// as a conflict: their order would be ambiguous.
			if c.start < a.end && a.start < c.end {
				return true
			}
			if c.start == c.end && a.start == a.end && c.start == a.start {
				return true
			}
		}
	}
	return false
}

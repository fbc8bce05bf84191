package sim

import "testing"

// FuzzQueue decodes the input into a script of the differential test's
// operations (decodeQueueScript), runs it on the timing wheel and on
// refLoop, and requires the same firing sequence, Stop results, clock
// and accounting (diffCompare). The checked-in corpus under
// testdata/fuzz/FuzzQueue replays on every `go test`; `make fuzz-smoke`
// searches for new inputs.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		script, slots := decodeQueueScript(data)
		wheel := runScript[*Timer](NewEngine(1), script, slots)
		ref := runScript[*refTimer](&refLoop{}, script, slots)
		diffCompare(t, 0, wheel, ref)
	})
}

// maxFuzzOps caps a decoded script, so one input runs in well under a
// millisecond.
const maxFuzzOps = 1024

// decodeQueueScript turns fuzz bytes into a script for runScript. The
// first byte picks the slot count, 1 to 8, so few slots force dense
// reuse of timers across states. Each following 4-byte group is one
// operation:
//   - byte 0: the kind (low 3 bits: schedule ×3, stop, reschedule,
//     retime, run, run-all) and, for a schedule, what its callback does
//     (next 2 bits: 1 schedules a child, 2 stops a slot, 3 posts a
//     child, 0 nothing) and whether it is a Post (bit 5);
//   - byte 1: the slot (mod slots) and the callback's slot (high nibble);
//   - byte 2: the delay, an index into the diffDelays grid;
//   - byte 3: the child's delay, an index into the same grid.
//
// Trailing bytes that make no whole group are ignored.
func decodeQueueScript(data []byte) ([]diffOp, int) {
	if len(data) == 0 {
		return nil, 1
	}
	slots := 1 + int(data[0]%8)
	grid := func(b byte) Time { return diffDelays[int(b)%len(diffDelays)] }
	var script []diffOp
	nextID := 0
	for data = data[1:]; len(data) >= 4 && len(script) < maxFuzzOps; data = data[4:] {
		op := diffOp{slot: int(data[1]) % slots, delay: grid(data[2]), id: nextID}
		nextID++
		switch data[0] % 8 {
		case 0, 1, 2:
			op.kind = dopSchedule
			op.post = data[0]&(1<<5) != 0
			switch (data[0] >> 3) % 4 {
			case 1:
				op.act, op.actSlot, op.actDly = dactSchedule, int(data[1]>>4)%slots, grid(data[3])
				op.childID = nextID
				nextID++
			case 2:
				op.act, op.actSlot = dactStop, int(data[1]>>4)%slots
			case 3:
				op.act, op.actDly = dactPost, grid(data[3])
				op.childID = nextID
				nextID++
			}
		case 3:
			op.kind = dopStop
		case 4:
			op.kind = dopResched
		case 5:
			op.kind = dopRetime
		case 6:
			op.kind = dopRun
		default:
			op.kind = dopRunAll
		}
		script = append(script, op)
	}
	return script, slots
}

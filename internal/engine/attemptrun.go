package engine

import (
	"slices"

	"alm/internal/fairshare"
	"alm/internal/sim"
)

// attemptRun is the part of an executor every kind shares (map, reduce
// and FCM reduce embed it): the attempt it runs, its dead flag, and
// everything it has armed, so that one stop tears any attempt down.
//
// Each armed timer is tracked exactly once. A one-shot timer (after)
// enters timers when it is scheduled. A recurring timer is a heldTimer
// in a field of its exec, re-armed in place by rearm, which links it
// into held the first time it arms it and never again. In checked builds
// a timer tracked a second time panics (assertUntracked).
type attemptRun struct {
	job  *Job
	t    *taskState
	a    *attempt
	dead bool

	flows  []fairshare.Flow
	timers []*sim.Timer
	held   *heldTimer

	// The liveness heartbeat of reduce and FCM attempts: pingFn is bound
	// once, when it starts, and re-arms ping.
	ping   heldTimer
	pingFn func()
}

// heldTimer is a recurring timer and the link that records it in its
// attempt's held list.
type heldTimer struct {
	tm   *sim.Timer
	next *heldTimer
}

// reapFloor is the list length below which reap never compacts.
const reapFloor = 32

// reap makes room in a full list of flows or one-shot timers by dropping
// the finished entries, so the list follows the live set rather than the
// attempt's whole history: long shuffles retire thousands of both. A list
// still more than half live is clipped instead of kept, so the next
// append grows it and compaction stays amortized O(1) per entry.
func reap[T any](s []T, finished func(T) bool) []T {
	if len(s) < cap(s) || len(s) < reapFloor {
		return s
	}
	s = slices.DeleteFunc(s, finished)
	if len(s) > cap(s)/2 {
		s = slices.Clip(s)
	}
	return s
}

func timerIdle(t *sim.Timer) bool { return !t.Active() }

func (r *attemptRun) addFlow(f fairshare.Flow) {
	r.flows = append(reap(r.flows, fairshare.Flow.Ended), f)
}

// after arms a one-shot timer.
func (r *attemptRun) after(d sim.Time, fn func()) { r.addTimer(r.job.Eng.Schedule(d, fn)) }

func (r *attemptRun) addTimer(tm *sim.Timer) {
	r.assertUntracked(tm)
	r.timers = append(reap(r.timers, timerIdle), tm)
}

// rearm arms the recurring timer h with its pre-bound callback: the first
// call schedules it and links it into held, later calls re-arm the same
// Timer with Reschedule, which is ordering-equivalent to a fresh Schedule,
// so the event sequence is that of one timer per tick.
func (r *attemptRun) rearm(h *heldTimer, d sim.Time, fn func()) {
	if h.tm != nil {
		h.tm.Reschedule(d, fn)
		return
	}
	h.tm = r.job.Eng.Schedule(d, fn)
	r.assertUntracked(h.tm)
	h.next, r.held = r.held, h
}

// startHeartbeat reports p's progress to the AM now and every
// HeartbeatInterval while the attempt lives, matching Hadoop's status
// pings, so the AM's progress timeout fires only for unreachable or
// wedged tasks.
func (r *attemptRun) startHeartbeat(p interface{ progress() float64 }) {
	r.pingFn = func() { r.livenessPing(p) }
	r.livenessPing(p)
}

func (r *attemptRun) livenessPing(p interface{ progress() float64 }) {
	if r.dead {
		return
	}
	r.job.am.reportProgress(r.a, p.progress())
	r.rearm(&r.ping, r.job.Spec.Conf.HeartbeatInterval, r.pingFn)
}

// stop tears the attempt down: it marks it dead, cancels its flows and
// stops every timer it armed, one-shot or held. Callbacks already queued
// see dead and return. The AM has already accounted the attempt's fate.
func (r *attemptRun) stop() {
	r.dead = true
	for _, f := range r.flows {
		f.Cancel()
	}
	for _, tm := range r.timers {
		tm.Stop()
	}
	for h := r.held; h != nil; h = h.next {
		h.tm.Stop()
	}
	r.assertQuiet()
}

// Query quarantine: the engine's half of panic containment. A panic in
// one query's pipeline — shedder, matcher, a user OnWindowClose hook —
// must cost exactly that query, not the process and not its siblings.
//
// The runtime layer (runtime/guard.go) turns the panic into a tripped
// pipeline that drains without processing, and fires Config.OnPanic
// from the panicking goroutine. The engine registers an OnPanic that
// enqueues the query on a fault channel; Run picks it up and
// quarantines it: the query is removed from the routing table (an
// auto-Deregister), its pipeline is drained and shut down, and the
// panic — stack, count, time — is recorded in Stats(). Every other
// query keeps its event stream intact: a fan-out holds the read lock
// across a whole batch, so no sibling ever observes a half-delivered
// batch around a quarantine.
//
// With Config.RestartCooldown set, a circuit breaker re-Registers the
// quarantined query from its original QueryConfig after the cool-down
// (a fresh pipeline; the panic may have been transient), up to
// Config.MaxRestarts times per query name.
package engine

import (
	"sort"
	"time"
)

// QuarantineStats describes one quarantined (or since-restarted) query
// in the engine statistics.
type QuarantineStats struct {
	// Name is the query's registration key.
	Name string
	// Panics counts quarantines of this query name over the engine
	// lifetime; Restarts counts circuit-breaker re-registrations.
	Panics   uint64
	Restarts uint64
	// Restarting reports a pending cool-down timer: the query is
	// currently out of service but will be re-registered.
	Restarting bool
	// Since is the time of the last quarantine.
	Since time.Time
	// Error is the last panic value, rendered; Stack the panicking
	// goroutine's captured stack trace.
	Error string
	Stack string
}

// logsf forwards to the configured logger, if any.
func (e *Engine) logsf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// noteFault hands a tripped query to Run for quarantine. Called from
// the panicking goroutine via the pipeline's OnPanic — at most once per
// pipeline — so the buffered send virtually never blocks; the fallback
// goroutine covers an engine with more simultaneously-failing queries
// than the buffer.
func (e *Engine) noteFault(q *Query) {
	select {
	case e.faults <- q:
	default:
		go func() { e.faults <- q }()
	}
}

// quarantine removes a tripped query from the routing table, shuts its
// pipeline down, records the panic and (optionally) arms the restart
// breaker. Runs on the engine's Run goroutine; the write lock waits out
// a fan-out in flight.
func (e *Engine) quarantine(q *Query) {
	pe := q.pipe.PanicError()

	e.mu.Lock()
	// A concurrent Deregister may have removed q already; it owns the
	// counter fold and the detached close then, and a restart would
	// resurrect a query the caller explicitly removed.
	removed := e.byName[q.name] == q
	if removed {
		delete(e.byName, q.name)
		for i, other := range e.queries {
			if other == q {
				e.queries = append(e.queries[:i], e.queries[i+1:]...)
				break
			}
		}
		e.retiredDelivered.Add(q.delivered.Load())
		e.retiredSkipped.Add(q.skipped.Load())
	}
	rec := e.quarantined[q.name]
	if rec == nil {
		rec = &QuarantineStats{Name: q.name}
		e.quarantined[q.name] = rec
	}
	rec.Panics++
	rec.Since = time.Now()
	if pe != nil {
		rec.Error = pe.Error()
		rec.Stack = pe.Stack
	}
	restart := removed && !e.closed && !rec.Restarting && e.cfg.RestartCooldown > 0 &&
		(e.cfg.MaxRestarts <= 0 || rec.Restarts < uint64(e.cfg.MaxRestarts))
	if restart {
		rec.Restarting = true
		cfg := q.cfg
		name := q.name
		timer := time.AfterFunc(e.cfg.RestartCooldown, func() { e.restartQuarantined(name, cfg) })
		e.restartTimers = append(e.restartTimers, timer)
	}
	e.mu.Unlock()

	e.logsf("engine: query %s quarantined: %v (restart=%v)", q.name, pe, restart)
	if removed {
		close(q.detached)
	}
	e.teardownQuarantined(q)
}

// teardownQuarantined drains and stops the quarantined pipeline under
// its own recovery guard: the panic may have left the pipeline's
// submitter-side state (the partitioner) inconsistent, and a second
// panic during teardown must not escape into Run.
func (e *Engine) teardownQuarantined(q *Query) {
	defer func() {
		if r := recover(); r != nil {
			e.logsf("engine: query %s teardown panic (contained): %v", q.name, r)
		}
	}()
	q.shutdown()
}

// restartQuarantined is the circuit breaker's half-open probe: after
// the cool-down it re-registers the query from its original config on
// a fresh pipeline. A query that panics again goes right back into
// quarantine (and, below MaxRestarts, gets another cool-down).
func (e *Engine) restartQuarantined(name string, cfg QueryConfig) {
	e.mu.Lock()
	rec := e.quarantined[name]
	if rec != nil {
		rec.Restarting = false
	}
	if e.closed {
		e.mu.Unlock()
		return
	}
	if rec != nil {
		rec.Restarts++
	}
	e.mu.Unlock()
	if _, err := e.Register(cfg); err != nil {
		e.logsf("engine: restart %s: %v", name, err)
		return
	}
	e.logsf("engine: query %s re-registered after cool-down", name)
}

// quarantineSnapshot copies the quarantine records, sorted by name.
// Caller must hold e.mu (either mode is fine for reading the map
// structure; records mutate only under the write lock).
func (e *Engine) quarantineSnapshot() []QuarantineStats {
	if len(e.quarantined) == 0 {
		return nil
	}
	out := make([]QuarantineStats, 0, len(e.quarantined))
	for _, rec := range e.quarantined {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

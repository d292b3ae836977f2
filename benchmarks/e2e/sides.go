package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/queries"
	"repro/internal/runtime"
)

// pipelineSide is a bare runtime.Pipeline fed by connection 0.
type pipelineSide struct {
	*runtime.Pipeline
	query queries.Query
}

func newPipelineSide(q queries.Query, cfg runtime.Config) (side, error) {
	cfg.Operator.Window = q.Window
	cfg.Operator.Patterns = q.Patterns
	p, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	return &pipelineSide{Pipeline: p, query: q}, nil
}

func (s *pipelineSide) run(ctx context.Context) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return done
}

func (s *pipelineSide) outputs() []output {
	return []output{{
		name:    s.query.Name,
		query:   s.query,
		accepts: func(event.Type) bool { return true },
		ch:      s.Out(),
	}}
}

func (s *pipelineSide) drained(sent uint64) bool { return pipelineDrained(s.Pipeline, sent) }

func (s *pipelineSide) closeInput() { s.CloseInput() }

func (s *pipelineSide) counters() (operator.Stats, uint64) {
	st := s.Stats()
	return st.Operator, st.Submitted
}

func (s *pipelineSide) primary() *runtime.Pipeline { return s.Pipeline }

// pipelineDrained reports whether a pipeline has processed want events
// and, when sharded, emptied every shard queue behind the partitioner.
func pipelineDrained(p *runtime.Pipeline, want uint64) bool {
	st := p.Stats()
	if st.Processed != want {
		return false
	}
	for _, sh := range st.Shards {
		if sh.QueueLen != 0 {
			return false
		}
	}
	return true
}

// engineSide is an engine.Engine with tenant-scoped queries; tenant i
// is fed by connection i.
type engineSide struct {
	*engine.Engine
	queries []engineQuery
}

type engineQuery struct {
	q    *engine.Query
	cfg  engine.QueryConfig
	conn int
}

func (s *engineSide) run(ctx context.Context) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return done
}

func (s *engineSide) outputs() []output {
	var outs []output
	for _, eq := range s.queries {
		outs = append(outs, output{
			name:    eq.q.Name(),
			conn:    eq.conn,
			query:   eq.cfg.Query,
			accepts: eq.q.Accepts,
			ch:      eq.q.Out(),
		})
	}
	return outs
}

// drained holds once the fan-out has offered every submitted event to
// every query and each query's pipeline has processed what it was
// delivered.
func (s *engineSide) drained(sent uint64) bool {
	if s.Stats().Submitted != sent {
		return false
	}
	for _, eq := range s.queries {
		qs := eq.q.Stats()
		if qs.Delivered+qs.Skipped != sent || !pipelineDrained(eq.q.Pipeline(), qs.Delivered) {
			return false
		}
	}
	return true
}

func (s *engineSide) closeInput() { s.CloseInput() }

func (s *engineSide) counters() (operator.Stats, uint64) {
	var sum operator.Stats
	var delivered uint64
	for _, eq := range s.queries {
		qs := eq.q.Stats()
		delivered += qs.Delivered
		op := qs.Pipeline.Operator
		sum.EventsProcessed += op.EventsProcessed
		sum.Memberships += op.Memberships
		sum.MembershipsKept += op.MembershipsKept
		sum.MembershipsShed += op.MembershipsShed
		sum.WindowsClosed += op.WindowsClosed
		sum.ComplexEvents += op.ComplexEvents
	}
	return sum, delivered
}

func (s *engineSide) primary() *runtime.Pipeline { return s.queries[0].q.Pipeline() }

// tenantNames are the tokens (and tenant identities) of engine_tenants.
var tenantNames = []string{"a", "b"}

// newEngineSide registers, per tenant, Q2 on two shards, Q3 and Q4.
// Q3 runs unfiltered: its windows open on leader quotes, which its
// pattern does not reference, so the engine's type filter would leave it
// without a single window.
func newEngineSide(tiles []*tile) (side, error) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return nil, err
	}
	s := &engineSide{Engine: eng}
	for i, tl := range tiles {
		qs, err := tenantQueries(tl)
		if err != nil {
			return nil, err
		}
		for _, cfg := range qs {
			cfg.Tenant = tenantNames[i]
			cfg.Name = fmt.Sprintf("%s/%s", tenantNames[i], cfg.Query.Name)
			q, err := eng.Register(cfg)
			if err != nil {
				return nil, err
			}
			s.queries = append(s.queries, engineQuery{q: q, cfg: cfg, conn: i})
		}
	}
	return s, nil
}

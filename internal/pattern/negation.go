package pattern

import "repro/internal/window"

// matchWithNeg is the complete backtracking matcher for patterns that
// contain negation steps (first selection policy). Greedy earliest
// matching is not complete once negation is involved — a negated event
// between the greedy choice and the next step may be avoidable by
// anchoring a later instance — so positive steps try every candidate
// start position in order and backtrack on failure. Constituents are
// appended to s.consts (truncated back on failure).
//
// Negation semantics follow SASE/Snoop: a negation step between two
// positive steps requires that no event accepted by it occurs strictly
// between the two steps' matched events; a trailing negation step
// requires that no accepted event occurs between the last positive match
// and the window close.
func (c *Compiled) matchWithNeg(s *MatchScratch, entries *window.View, stepStart, entFrom int) bool {
	steps := c.p.Steps
	n := entries.Len()
	base := len(s.consts)

	var rec func(si, from int) bool
	rec = func(si, from int) bool {
		// Collect a (single, validated-non-adjacent) negation step.
		negIdx := -1
		for si < len(steps) && steps[si].Neg {
			negIdx = si
			si++
		}
		if si >= len(steps) {
			if negIdx >= 0 {
				// Trailing negation: the remainder of the window must be
				// free of accepted events.
				for i := from; i < n; i++ {
					if c.stepAccepts(negIdx, entries, i) {
						return false
					}
				}
			}
			return true
		}
		for j := from; j < n; j++ {
			// The candidate event is consumed by the positive step, not
			// part of the gap, so try it before the negation check — an
			// event accepted by both the step and the negation matches the
			// step (match-wins semantics).
			if c.stepAccepts(si, entries, j) {
				mark := len(s.consts)
				next, ok := c.consumeStep(s, si, entries, j)
				if ok && rec(si+1, next) {
					return true
				}
				s.consts = s.consts[:mark]
			}
			if negIdx >= 0 && c.stepAccepts(negIdx, entries, j) {
				// A negated event precedes every remaining candidate: no
				// valid continuation from this branch.
				return false
			}
		}
		return false
	}

	if !rec(stepStart, entFrom) {
		s.consts = s.consts[:base]
		return false
	}
	return true
}

// consumeStep consumes step si's events greedily starting at entry j
// (which must satisfy stepAccepts; for conjunction steps it is one of
// the required types) and appends the constituents to s.consts. It
// returns the entry index following the last consumed event. The shared
// type-set scratch is free here: consumeStep never nests inside another
// step's set use.
func (c *Compiled) consumeStep(s *MatchScratch, si int, entries *window.View, j int) (int, bool) {
	st := &c.p.Steps[si]
	n := entries.Len()
	switch {
	case st.All:
		need := s.loadStep(st.Types)
		i := j
		for ; i < n && need > 0; i++ {
			t := entries.Type(i)
			if !s.setHas(t) {
				continue
			}
			if st.Pred != nil && !st.Pred(entries.Event(i)) {
				continue
			}
			s.consts = append(s.consts, entries.At(i))
			s.setRemove(t)
			need--
		}
		if need > 0 {
			return 0, false
		}
		return i, true
	case st.Cumulative:
		min := st.AnyN
		if min < 1 {
			min = 1
		}
		if st.Distinct {
			s.loadStep(nil)
		}
		got := 0
		for i := j; i < n; i++ {
			if !c.stepAccepts(si, entries, i) {
				continue
			}
			if st.Distinct && !s.takeDistinct(entries.Type(i)) {
				continue
			}
			s.consts = append(s.consts, entries.At(i))
			got++
		}
		if got < min {
			return 0, false
		}
		return n, true
	case st.AnyN > 0:
		if st.Distinct {
			s.loadStep(nil)
		}
		need := st.AnyN
		i := j
		for ; i < n && need > 0; i++ {
			if !c.stepAccepts(si, entries, i) {
				continue
			}
			if st.Distinct && !s.takeDistinct(entries.Type(i)) {
				continue
			}
			s.consts = append(s.consts, entries.At(i))
			need--
		}
		if need > 0 {
			return 0, false
		}
		return i, true
	default:
		s.consts = append(s.consts, entries.At(j))
		return j + 1, true
	}
}

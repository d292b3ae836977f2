// Package pattern implements the CEP pattern language and matcher used by
// the eSPICE evaluation (Section 4.1 of the paper): the sequence operator,
// the sequence-with-any operator, and sequences with repetition, all with
// skip-till-next/any-match semantics, under the first and last selection
// policies and the consumed/zero consumption policies (Section 2).
//
// A pattern is a sequence of steps. Each step matches one event (or, for
// "any" steps, n events of a set of allowed types) and may carry a content
// predicate. Matching reads the kept entries of a closed window through
// a window.View and reports the constituent events, copied out as values,
// together with their window positions, which is exactly the statistic
// the eSPICE model builder consumes.
package pattern

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/window"
)

// SelectionPolicy determines which event instances participate in a match
// when several candidates exist (Section 2 of the paper).
type SelectionPolicy int

// Selection policies.
const (
	// SelectFirst picks the earliest event instances.
	SelectFirst SelectionPolicy = iota
	// SelectLast picks the latest event instances.
	SelectLast
)

// String returns the policy name.
func (p SelectionPolicy) String() string {
	switch p {
	case SelectFirst:
		return "first"
	case SelectLast:
		return "last"
	default:
		return fmt.Sprintf("selection(%d)", int(p))
	}
}

// ConsumptionPolicy determines whether an event instance may participate
// in several matches (Section 2).
type ConsumptionPolicy int

// Consumption policies.
const (
	// ConsumeZero allows reuse of event instances across matches.
	ConsumeZero ConsumptionPolicy = iota
	// Consumed removes matched instances from further matching.
	Consumed
)

// String returns the policy name.
func (p ConsumptionPolicy) String() string {
	switch p {
	case ConsumeZero:
		return "zero"
	case Consumed:
		return "consumed"
	default:
		return fmt.Sprintf("consumption(%d)", int(p))
	}
}

// Predicate tests event content (attribute values, kind). Predicates are
// part of the query, not of the utility model: eSPICE deliberately treats
// the operator as a black box and learns from types and positions only.
type Predicate func(e event.Event) bool

// Step is one element of a sequence pattern.
//
// A step with AnyN == 0 matches exactly one event whose type is in Types
// (any type if Types is empty) and which satisfies Pred. A step with
// AnyN = n > 0 is the "any" operator: it matches n events from Types (any
// types if empty), in any order, optionally requiring pairwise-distinct
// types — e.g. seq(STR; any(n, DF1..DFm)) from query Q1.
//
// Three further operator classes from the event specification languages
// the paper builds on (Tesla, Snoop, SASE — Section 2):
//
//   - All marks a conjunction step: every listed type must occur (in any
//     order) before the next step may match.
//   - Neg marks a negation step: the match is valid only if no event
//     accepted by the step occurs between the surrounding positive steps
//     (or, for a trailing negation, before the window closes).
//   - Cumulative (final step only) collects every matching event from
//     the preceding step's match to the window end, with AnyN as the
//     minimum count — Snoop's cumulative selection.
type Step struct {
	Types      []event.Type
	AnyN       int
	Distinct   bool
	All        bool
	Neg        bool
	Cumulative bool
	Pred       Predicate
}

// Pattern is a sequence of steps with selection and consumption policies.
//
// An Anchored pattern requires its first step to match the window's
// opening event (position 0). This expresses queries whose windows are
// opened by a logical predicate on exactly the pattern's leading event —
// e.g. Q1's "a new window is opened for each incoming striker event" —
// so that a window opened by one striker cannot be satisfied by a later
// possession of the other striker drifting mid-window.
type Pattern struct {
	Name        string
	Steps       []Step
	Selection   SelectionPolicy
	Consumption ConsumptionPolicy
	Anchored    bool
}

// Match is one detected complex event: the constituent primitive events
// with their positions in the window.
type Match struct {
	Constituents []window.Entry
}

// Seqs returns the constituent sequence numbers, in match order. Two
// matches with equal Seqs in the same window denote the same complex
// event; the quality metrics key on this.
func (m Match) Seqs() []uint64 {
	out := make([]uint64, len(m.Constituents))
	for i, c := range m.Constituents {
		out[i] = c.Ev.Seq
	}
	return out
}

// Compiled is a validated pattern with per-step type bitsets precomputed
// for O(1) type membership tests during matching. A Compiled is immutable
// after Compile and safe to share across goroutines; all per-match
// working memory lives in a caller-owned MatchScratch.
type Compiled struct {
	p      Pattern
	sets   []*stepTypes // nil => wildcard
	width  int          // total events a full match consumes
	hasNeg bool         // negation requires the backtracker
}

// Compile validates the pattern and prepares it for matching.
func Compile(p Pattern) (*Compiled, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("pattern %q: no steps", p.Name)
	}
	if p.Anchored && p.Steps[0].AnyN > 0 {
		return nil, fmt.Errorf("pattern %q: anchored pattern cannot start with an any step", p.Name)
	}
	for i, s := range p.Steps {
		if s.Neg && p.Selection == SelectLast {
			return nil, fmt.Errorf("pattern %q step %d: negation is not supported with the last selection policy", p.Name, i)
		}
		if s.Cumulative && p.Selection == SelectLast {
			return nil, fmt.Errorf("pattern %q step %d: cumulative selection requires the first selection policy", p.Name, i)
		}
	}
	c := &Compiled{p: p, sets: make([]*stepTypes, len(p.Steps))}
	for i, s := range p.Steps {
		if s.AnyN < 0 {
			return nil, fmt.Errorf("pattern %q step %d: negative AnyN %d", p.Name, i, s.AnyN)
		}
		for _, t := range s.Types {
			if t < 0 {
				return nil, fmt.Errorf("pattern %q step %d: invalid type id %d", p.Name, i, t)
			}
		}
		if s.AnyN > 0 && s.Distinct && len(s.Types) > 0 && s.AnyN > len(s.Types) {
			return nil, fmt.Errorf("pattern %q step %d: AnyN %d exceeds %d distinct types",
				p.Name, i, s.AnyN, len(s.Types))
		}
		if s.Neg {
			if s.AnyN > 0 || s.All || s.Cumulative {
				return nil, fmt.Errorf("pattern %q step %d: negation cannot combine with any/all/cumulative", p.Name, i)
			}
			if i == 0 && p.Anchored {
				return nil, fmt.Errorf("pattern %q: anchored pattern cannot start with negation", p.Name)
			}
			if i > 0 && p.Steps[i-1].Neg {
				return nil, fmt.Errorf("pattern %q step %d: adjacent negation steps", p.Name, i)
			}
			c.hasNeg = true
		}
		if s.All {
			if len(s.Types) == 0 {
				return nil, fmt.Errorf("pattern %q step %d: conjunction needs explicit types", p.Name, i)
			}
			if s.AnyN > 0 {
				return nil, fmt.Errorf("pattern %q step %d: conjunction cannot combine with AnyN", p.Name, i)
			}
		}
		if s.Cumulative {
			if i != len(p.Steps)-1 {
				return nil, fmt.Errorf("pattern %q step %d: cumulative is only valid on the final step", p.Name, i)
			}
			if s.Neg {
				return nil, fmt.Errorf("pattern %q step %d: cumulative cannot be negated", p.Name, i)
			}
		}
		if len(s.Types) > 0 {
			// Type ids were validated non-negative above.
			c.sets[i] = newStepTypes(s.Types)
		}
		switch {
		case s.Neg:
			// consumes no events
		case s.All:
			c.width += len(s.Types)
		case s.AnyN > 0:
			c.width += s.AnyN
		default:
			c.width++
		}
	}
	if c.hasNeg && onlyNegSteps(p.Steps) {
		return nil, fmt.Errorf("pattern %q: needs at least one positive step", p.Name)
	}
	return c, nil
}

func onlyNegSteps(steps []Step) bool {
	for _, s := range steps {
		if !s.Neg {
			return false
		}
	}
	return true
}

// MustCompile is Compile that panics on error; for use with
// statically-known-correct patterns in tests and query constructors.
func MustCompile(p Pattern) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Pattern returns the source pattern.
func (c *Compiled) Pattern() Pattern { return c.p }

// Width returns the number of primitive events in a full match.
func (c *Compiled) Width() int { return c.width }

// stepAccepts reports whether kept entry i of v can satisfy step si. The
// type test reads only the entry's type; the event is fetched for the
// content predicate alone.
func (c *Compiled) stepAccepts(si int, v *window.View, i int) bool {
	if set := c.sets[si]; set != nil && !set.has(v.Type(i)) {
		return false
	}
	if pred := c.p.Steps[si].Pred; pred != nil {
		return pred(v.Event(i))
	}
	return true
}

// Match finds at most one match in the window's kept entries according
// to the pattern's selection policy — the paper's evaluation setting of
// one complex event per window. The returned constituents are freshly
// scoped to this call; hot paths should use MatchWith with a reused
// scratch instead.
func (c *Compiled) Match(entries window.View) (Match, bool) {
	var s MatchScratch
	return c.MatchWith(&s, entries)
}

// MatchWith is Match using caller-owned scratch memory: in steady state
// (warm scratch) it performs no allocation. The returned Match's
// Constituents alias the scratch and are only valid until the next
// MatchWith/MatchAllWith call with the same scratch; copy them (e.g. via
// Seqs) before that if they must outlive it.
func (c *Compiled) MatchWith(s *MatchScratch, entries window.View) (Match, bool) {
	s.consts = s.consts[:0]
	if !c.matchOnce(s, &entries) {
		return Match{}, false
	}
	return Match{Constituents: s.consts}, true
}

// matchOnce dispatches one match attempt per the selection policy,
// appending the constituents to s.consts.
func (c *Compiled) matchOnce(s *MatchScratch, entries *window.View) bool {
	if c.p.Anchored {
		return c.matchAnchored(s, entries)
	}
	if c.hasNeg {
		return c.matchWithNeg(s, entries, 0, 0)
	}
	switch c.p.Selection {
	case SelectLast:
		return c.matchLast(s, entries, 0, 0)
	default:
		return c.matchFirst(s, entries, 0, 0, false)
	}
}

// matchAnchored requires the first step to match the window opener
// (position 0); the remaining steps follow the selection policy. If
// shedding dropped the opening event, the match fails — the pattern's
// anchor is gone.
func (c *Compiled) matchAnchored(s *MatchScratch, entries *window.View) bool {
	if entries.Len() == 0 || entries.Pos(0) != 0 || !c.stepAccepts(0, entries, 0) {
		return false
	}
	base := len(s.consts)
	s.consts = append(s.consts, entries.At(0))
	if len(c.p.Steps) == 1 {
		return true
	}
	ok := false
	switch {
	case c.hasNeg:
		ok = c.matchWithNeg(s, entries, 1, 1)
	case c.p.Selection == SelectLast:
		ok = c.matchLast(s, entries, 1, 1)
	default:
		ok = c.matchFirst(s, entries, 1, 1, false)
	}
	if !ok {
		s.consts = s.consts[:base]
	}
	return ok
}

// matchFirst performs greedy skip-till-next matching of steps[stepStart:]
// from entry index `from`, choosing the earliest instances and appending
// them to s.consts. With useSkip, s.skip marks entry indices that are
// consumed and unavailable. Greedy earliest selection is complete for
// sequence patterns: if any match exists, the greedy one exists (standard
// exchange argument).
func (c *Compiled) matchFirst(s *MatchScratch, entries *window.View, stepStart, from int, useSkip bool) bool {
	base := len(s.consts)
	n := entries.Len()
	i := from
	for si := stepStart; si < len(c.p.Steps); si++ {
		st := &c.p.Steps[si]
		if st.All {
			// Conjunction: collect one event of every required type, any
			// order (earliest instances).
			need := s.loadStep(st.Types)
			for ; i < n && need > 0; i++ {
				if useSkip && s.skip[i] {
					continue
				}
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
				s.consts = s.consts[:base]
				return false
			}
			continue
		}
		if st.Cumulative {
			// Cumulative selection: every matching event to the window
			// end, at least max(1, AnyN) of them.
			min := st.AnyN
			if min < 1 {
				min = 1
			}
			if st.Distinct {
				s.loadStep(nil) // taken set starts empty
			}
			got := 0
			for ; i < n; i++ {
				if useSkip && s.skip[i] {
					continue
				}
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
				s.consts = s.consts[:base]
				return false
			}
			continue
		}
		if st.AnyN == 0 {
			found := false
			for ; i < n; i++ {
				if useSkip && s.skip[i] {
					continue
				}
				if c.stepAccepts(si, entries, i) {
					s.consts = append(s.consts, entries.At(i))
					i++
					found = true
					break
				}
			}
			if !found {
				s.consts = s.consts[:base]
				return false
			}
			continue
		}
		// "any" step: collect the next AnyN acceptable events.
		if st.Distinct {
			s.loadStep(nil)
		}
		need := st.AnyN
		for ; i < n && need > 0; i++ {
			if useSkip && s.skip[i] {
				continue
			}
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
			s.consts = s.consts[:base]
			return false
		}
	}
	return true
}

// matchLast chooses the latest instances for steps[stepStart:] over
// entries[entStart:]: it scans backward with the steps reversed, which is
// the mirror image of matchFirst and equally complete.
func (c *Compiled) matchLast(s *MatchScratch, entries *window.View, stepStart, entStart int) bool {
	base := len(s.consts)
	i := entries.Len() - 1
	for si := len(c.p.Steps) - 1; si >= stepStart; si-- {
		st := &c.p.Steps[si]
		if st.All {
			// Conjunction with latest instances: scan backward collecting
			// one event of every required type.
			need := s.loadStep(st.Types)
			for ; i >= entStart && need > 0; i-- {
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
				s.consts = s.consts[:base]
				return false
			}
			continue
		}
		if st.AnyN == 0 {
			found := false
			for ; i >= entStart; i-- {
				if c.stepAccepts(si, entries, i) {
					s.consts = append(s.consts, entries.At(i))
					i--
					found = true
					break
				}
			}
			if !found {
				s.consts = s.consts[:base]
				return false
			}
			continue
		}
		if st.Distinct {
			s.loadStep(nil)
		}
		need := st.AnyN
		for ; i >= entStart && need > 0; i-- {
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
			s.consts = s.consts[:base]
			return false
		}
	}
	// Reverse the appended tail into window order.
	for l, r := base, len(s.consts)-1; l < r; l, r = l+1, r-1 {
		s.consts[l], s.consts[r] = s.consts[r], s.consts[l]
	}
	return true
}

// MatchAll finds every match under the pattern's consumption policy, in
// stream order, up to limit matches (limit <= 0 means no limit). Under
// Consumed, matched instances are excluded from later matches; under
// ConsumeZero, instances may be reused, with successive matches anchored
// at successive occurrences of the first step (skip-till-next semantics).
func (c *Compiled) MatchAll(entries window.View, limit int) []Match {
	var s MatchScratch
	return c.MatchAllWith(&s, entries, limit, nil)
}

// MatchAllWith is MatchAll with caller-owned scratch: matches are
// appended to out and returned. In steady state only the out slice (and
// the shared constituent backing, when a window yields more matches than
// any before it) may grow. All returned Constituents alias the scratch
// and are valid until the next MatchWith/MatchAllWith call with s.
func (c *Compiled) MatchAllWith(s *MatchScratch, entries window.View, limit int, out []Match) []Match {
	s.consts = s.consts[:0]
	if c.p.Anchored || c.hasNeg {
		// An anchored pattern has a unique anchor (the window opener);
		// negation patterns report a single earliest match (interval
		// constraints make multi-match enumeration ambiguous).
		if c.matchOnce(s, &entries) {
			out = append(out, Match{Constituents: s.consts})
		}
		return out
	}
	n := entries.Len()
	switch c.p.Consumption {
	case Consumed:
		s.resetSkip(n)
		for {
			base := len(s.consts)
			if !c.matchFirst(s, &entries, 0, 0, true) {
				break
			}
			m := Match{Constituents: s.consts[base:]}
			out = append(out, m)
			for _, ct := range m.Constituents {
				// Mark consumed entries by index: entries are in window
				// order, so the position locates the index.
				if i := entries.Index(ct.Pos); i >= 0 {
					s.skip[i] = true
				}
			}
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	default: // ConsumeZero
		from := 0
		for from < n {
			// Find the next anchor (first-step occurrence) at or after from.
			anchor := -1
			for i := from; i < n; i++ {
				if c.stepAccepts(0, &entries, i) {
					anchor = i
					break
				}
			}
			if anchor < 0 {
				break
			}
			base := len(s.consts)
			if !c.matchFirst(s, &entries, 0, anchor, false) {
				break
			}
			out = append(out, Match{Constituents: s.consts[base:]})
			if limit > 0 && len(out) >= limit {
				break
			}
			from = anchor + 1
		}
	}
	return out
}

// TypeWeights describes how often each event type is required by the
// pattern — the "repetition of primitive events in the pattern" statistic
// the BL baseline shedder builds its per-type utilities from. Types listed
// in an "any" step share the step's weight; wildcard "any" steps
// contribute Wildcard weight to be spread over observed types by frequency.
type TypeWeights struct {
	PerType  map[event.Type]float64
	Wildcard float64
}

// TypeWeights computes the pattern's type repetition weights.
func (c *Compiled) TypeWeights() TypeWeights {
	w := TypeWeights{PerType: make(map[event.Type]float64)}
	for _, s := range c.p.Steps {
		if s.Neg {
			continue // absence requirements add no per-type demand
		}
		if s.All {
			// Conjunction needs one event of *every* listed type.
			for _, t := range s.Types {
				w.PerType[t]++
			}
			continue
		}
		weight := 1.0
		if s.AnyN > 0 {
			weight = float64(s.AnyN)
		}
		if len(s.Types) == 0 {
			w.Wildcard += weight
			continue
		}
		share := weight / float64(len(s.Types))
		for _, t := range s.Types {
			w.PerType[t] += share
		}
	}
	return w
}

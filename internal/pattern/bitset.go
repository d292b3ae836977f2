package pattern

import (
	"repro/internal/event"

	"repro/internal/window"
)

// maxDenseType bounds the type ids the dense bitsets cover: 1<<16 ids
// cost at most 8 KiB of words. Registry-interned ids are small and
// dense, so real workloads never leave this range; ids at or above the
// bound (raw, un-interned or corrupt type values are caller-suppliable
// through the ingress) fall back to a sparse map so one wild id cannot
// force an O(maxType) allocation.
const maxDenseType = 1 << 16

// typeBits is a dense bitset over interned event type ids below
// maxDenseType. A handful of 64-bit words replaces the per-step hash
// sets: membership is one shift and mask instead of a map probe, and the
// word array is immutable after Compile, so a Compiled stays shareable
// across goroutines.
type typeBits []uint64

// with returns the bitset with t's bit set, growing as needed. The
// caller guarantees 0 <= t < maxDenseType.
func (b typeBits) with(t event.Type) typeBits {
	w := int(t) >> 6
	for len(b) <= w {
		b = append(b, 0)
	}
	b[w] |= 1 << (uint(t) & 63)
	return b
}

// has reports whether t's bit is set.
func (b typeBits) has(t event.Type) bool {
	w := int(t) >> 6
	return t >= 0 && w < len(b) && b[w]&(1<<(uint(t)&63)) != 0
}

// unset clears t's bit.
func (b typeBits) unset(t event.Type) {
	if w := int(t) >> 6; t >= 0 && w < len(b) {
		b[w] &^= 1 << (uint(t) & 63)
	}
}

// reset zeroes every word, keeping the backing array.
func (b typeBits) reset() {
	for i := range b {
		b[i] = 0
	}
}

// stepTypes is one step's compiled type set: a bitset when every listed
// id is below maxDenseType, a hash set otherwise. Immutable after
// Compile (the map is only ever read), so sharing stays safe.
type stepTypes struct {
	bits typeBits
	m    map[event.Type]struct{}
}

// newStepTypes builds the set for a step's type list; ids are validated
// non-negative by Compile.
func newStepTypes(types []event.Type) *stepTypes {
	for _, t := range types {
		if t >= maxDenseType {
			m := make(map[event.Type]struct{}, len(types))
			for _, t := range types {
				m[t] = struct{}{}
			}
			return &stepTypes{m: m}
		}
	}
	var b typeBits
	for _, t := range types {
		b = b.with(t)
	}
	return &stepTypes{bits: b}
}

// has reports whether t is in the set.
func (ss *stepTypes) has(t event.Type) bool {
	if ss.m != nil {
		_, ok := ss.m[t]
		return ok
	}
	return ss.bits.has(t)
}

// MatchScratch holds the working memory of the matcher — the constituent
// buffer, the consumed-entry marks and the per-step type-set scratch —
// so that steady-state matching allocates nothing. A Compiled pattern is
// immutable and shareable; the scratch is the per-caller mutable half:
// keep one per processing goroutine and pass it to MatchWith/MatchAllWith.
// The zero value is ready to use. Not safe for concurrent use.
type MatchScratch struct {
	consts []window.Entry
	skip   []bool

	// The step set scratch (conjunction remaining-types, distinct
	// taken-types): dense bitset for registry-range ids, sparse overflow
	// map for everything else (negative sentinels, raw/un-interned huge
	// ids) — matching the hash-set matcher's exact semantics and
	// O(distinct) memory for arbitrary caller-supplied type values.
	tset typeBits
	big  map[event.Type]struct{}
}

// inDense reports whether t belongs in the dense bitset.
func inDense(t event.Type) bool { return t >= 0 && t < maxDenseType }

// setClear empties the step set scratch, keeping capacity.
func (s *MatchScratch) setClear() {
	s.tset.reset()
	clear(s.big)
}

// setAdd records t in the step set and reports whether it was new.
func (s *MatchScratch) setAdd(t event.Type) bool {
	if inDense(t) {
		if s.tset.has(t) {
			return false
		}
		s.tset = s.tset.with(t)
		return true
	}
	if _, dup := s.big[t]; dup {
		return false
	}
	if s.big == nil {
		s.big = make(map[event.Type]struct{})
	}
	s.big[t] = struct{}{}
	return true
}

// setHas reports whether t is in the step set.
func (s *MatchScratch) setHas(t event.Type) bool {
	if inDense(t) {
		return s.tset.has(t)
	}
	_, ok := s.big[t]
	return ok
}

// setRemove drops t from the step set.
func (s *MatchScratch) setRemove(t event.Type) {
	if inDense(t) {
		s.tset.unset(t)
		return
	}
	delete(s.big, t)
}

// loadStep prepares the step set scratch for one step: for conjunction
// steps it holds the remaining required types, for distinct steps the
// types already taken. Returns the number of distinct types recorded.
func (s *MatchScratch) loadStep(types []event.Type) int {
	s.setClear()
	n := 0
	for _, t := range types {
		if t >= 0 && s.setAdd(t) {
			n++
		}
	}
	return n
}

// takeDistinct records t in the distinct-dedup set and reports whether
// it was new (false: a duplicate, skip the event).
func (s *MatchScratch) takeDistinct(t event.Type) bool {
	return s.setAdd(t)
}

// resetSkip sizes the consumed-entry marks to n entries, all unmarked.
func (s *MatchScratch) resetSkip(n int) {
	if cap(s.skip) < n {
		s.skip = make([]bool, n)
		return
	}
	s.skip = s.skip[:n]
	for i := range s.skip {
		s.skip[i] = false
	}
}

package parallel

import (
	"reflect"
	"testing"
)

// collect builds a merger whose emissions land in the returned slice;
// read it only after Close.
func collect(buf int) (*EpochMerger[int], *[]int) {
	var got []int
	return NewEpochMerger(buf, func(v int) { got = append(got, v) }), &got
}

func results(epochs ...uint64) []EpochResult[int] {
	out := make([]EpochResult[int], len(epochs))
	for i, e := range epochs {
		out[i] = EpochResult[int]{Epoch: e, Val: int(e) * 10}
	}
	return out
}

// TestEmissionOrderPreserved publishes epochs out of order, within a
// batch and across batches: emission is in epoch order regardless.
func TestEmissionOrderPreserved(t *testing.T) {
	m, got := collect(4)
	m.Publish(results(3, 1))
	m.Publish(results(4))
	m.Publish(results(2, 0))
	m.Publish(results(5))
	m.Close()
	if want := []int{0, 10, 20, 30, 40, 50}; !reflect.DeepEqual(*got, want) {
		t.Errorf("emitted %v, want %v", *got, want)
	}
}

// TestEmptyEpochsKeepSequence: a producer with nothing to say for its
// epoch publishes the zero value, which is emitted like any other, so
// the epochs behind it are not held back; an empty *batch* is a no-op.
func TestEmptyEpochsKeepSequence(t *testing.T) {
	var got [][]string
	m := NewEpochMerger(2, func(v []string) { got = append(got, v) })
	m.Publish(nil)
	m.Publish([]EpochResult[[]string]{{Epoch: 1}, {Epoch: 2, Val: []string{"c"}}})
	m.Publish([]EpochResult[[]string]{{Epoch: 0, Val: []string{"a"}}})
	m.Close()
	want := [][]string{{"a"}, nil, {"c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("emitted %v, want %v", got, want)
	}
}

// TestBatchReuse: Batch hands out nil until a published batch has been
// consumed, then that batch's backing array, emptied.
func TestBatchReuse(t *testing.T) {
	m, got := collect(1)
	if b := m.Batch(); b != nil {
		t.Fatalf("fresh merger handed out %v", b)
	}
	first := append(make([]EpochResult[int], 0, 8), results(0, 1)...)
	m.Publish(first)
	// The emitter returns a batch before it takes the next one, so once a
	// second Publish and a third got through (buf 1), the first is back.
	m.Publish(results(2))
	m.Publish(results(3))
	b := m.Batch()
	if len(b) != 0 || cap(b) != 8 || &b[:1][0] != &first[0] {
		t.Errorf("Batch() = len %d cap %d, want the first batch's array emptied", len(b), cap(b))
	}
	m.Close()
	if want := []int{0, 10, 20, 30}; !reflect.DeepEqual(*got, want) {
		t.Errorf("emitted %v, want %v", *got, want)
	}
}

// TestCloseIdempotent: Close emits the contiguous prefix it received and
// drops what lies beyond a gap; closing again, or closing a merger that
// never published, does nothing.
func TestCloseIdempotent(t *testing.T) {
	m, got := collect(4)
	m.Publish(results(0, 1, 3, 4)) // epoch 2 never arrives
	m.Close()
	m.Close()
	if want := []int{0, 10}; !reflect.DeepEqual(*got, want) {
		t.Errorf("emitted %v, want the prefix %v", *got, want)
	}
	unused, _ := collect(1)
	unused.Close()
	unused.Close()
}

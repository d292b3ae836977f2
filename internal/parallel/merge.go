// Package parallel holds the ordered-merge stage of the sharded runtime:
// shards close and match their windows concurrently, and the EpochMerger
// hands the results on in window-close order, preserving the serial
// operator's output order.
package parallel

import "sync"

// EpochResult is one unit of an epoch-merged stream: a value tagged with
// its dense, monotonically increasing emission slot. Epochs start at 0
// and every epoch must eventually be published exactly once (a producer
// with nothing to say for its slot publishes the zero value).
type EpochResult[T any] struct {
	Epoch uint64
	Val   T
}

// EpochMerger re-serializes results produced out of order by concurrent
// workers: producers publish *batches* of epoch-tagged results whenever
// they finish them, and a single emitter goroutine buffers out-of-order
// epochs and hands values to the emit callback in epoch order. It costs
// one rendezvous per published batch — the merge side of the sharded
// runtime's run-to-completion batches.
//
// The zero epoch is emitted first; the epoch counter is owned by
// whoever assigns epochs (the runtime's partitioner), not the merger.
type EpochMerger[T any] struct {
	in    chan []EpochResult[T]
	back  chan []EpochResult[T]
	emit  func(T)
	start sync.Once
	stop  sync.Once
	wg    sync.WaitGroup
}

// NewEpochMerger builds the merger. buf bounds how many published
// batches may be in flight before Publish blocks; emit is called from
// the emitter goroutine only, in epoch order. The emitter starts lazily
// on the first Publish, so an unused merger owns no goroutine.
func NewEpochMerger[T any](buf int, emit func(T)) *EpochMerger[T] {
	if buf < 1 {
		buf = 1
	}
	return &EpochMerger[T]{
		in:   make(chan []EpochResult[T], buf),
		back: make(chan []EpochResult[T], buf+1),
		emit: emit,
	}
}

// run launches the emitter goroutine (once, from the first Publish).
func (m *EpochMerger[T]) run() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		next := uint64(0)
		pending := make(map[uint64]T)
		for batch := range m.in {
			for _, r := range batch {
				if r.Epoch != next {
					pending[r.Epoch] = r.Val
					continue
				}
				m.emit(r.Val)
				next++
				for {
					v, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					m.emit(v)
					next++
				}
			}
			// Hand the consumed batch back for reuse; drop it when the
			// recycle ring is momentarily full.
			select {
			case m.back <- batch[:0]:
			default:
			}
		}
	}()
}

// Batch returns an empty result batch, recycling the backing array of a
// previously consumed one when available.
func (m *EpochMerger[T]) Batch() []EpochResult[T] {
	select {
	case b := <-m.back:
		return b
	default:
		return nil
	}
}

// Publish hands a batch of results to the emitter; ownership of the
// slice transfers to the merger (obtain the next one from Batch). Safe
// for concurrent use by multiple producers. Must not be called after
// Close.
func (m *EpochMerger[T]) Publish(batch []EpochResult[T]) {
	if len(batch) == 0 {
		return
	}
	m.start.Do(m.run)
	m.in <- batch
}

// Close waits for every published batch to be emitted, then stops the
// emitter. Epochs never published (a canceled run) are simply dropped:
// the merger emits the longest contiguous prefix it received. Calling
// Close again is a no-op.
func (m *EpochMerger[T]) Close() {
	m.stop.Do(func() { close(m.in) })
	m.wg.Wait()
}

package transport

import (
	"sync"
	"testing"

	"repro/internal/msg"
)

// TestMeterConcurrency hammers one Meter from parallel writers while
// readers snapshot it, then checks the exact totals. Run with -race.
func TestMeterConcurrency(t *testing.T) {
	const (
		writers = 8
		perW    = 2000
	)
	m := &Meter{}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.Snapshot()
				// Tuples never outrun messages: every accounted call adds
				// one message and at most one tuple in these writers.
				if s.Tuples() > s.Messages {
					t.Errorf("snapshot tearing: tuples %d > messages %d", s.Tuples(), s.Messages)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				switch i % 3 {
				case 0:
					m.Account(&msg.Request{Kind: msg.KindNext}, &msg.Response{}) // up-tuple
				case 1:
					m.Account(&msg.Request{Kind: msg.KindEvaluate}, nil) // down-tuple
				case 2:
					m.Account(&msg.Request{Kind: msg.KindNext}, &msg.Response{Exhausted: true})
				}
				m.AddBytes(3)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := m.Snapshot()
	want := int64(writers * perW)
	if s.Messages != want {
		t.Fatalf("messages = %d, want %d", s.Messages, want)
	}
	// Per writer: cases 0 and 1 add one tuple each, case 2 adds none.
	perWriterTuples := int64((perW+2)/3 + (perW+1)/3)
	if got := s.Tuples(); got != perWriterTuples*writers {
		t.Fatalf("tuples = %d, want %d", got, perWriterTuples*writers)
	}
	if s.Bytes != 3*want {
		t.Fatalf("bytes = %d, want %d", s.Bytes, 3*want)
	}

	m.Reset()
	if z := m.Snapshot(); z != (Snapshot{}) {
		t.Fatalf("after Reset: %+v", z)
	}
}

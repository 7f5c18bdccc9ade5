package main

import (
	"sync"
	"time"
)

// sample is the timing of one scheduled operation of an open loop.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is the operation's time from when it was due to be sent, so a
// stall that delays later sends counts against them too.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how long after its due time the generator sent the operation.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop runs do(0) … do(n-1) on a fixed schedule, operation i due at
// start + i*interval whatever the system's speed, over at most conns
// operations in flight (one per connection). An operation whose due time
// finds every connection busy is sent when one frees up, and its latency
// still counts from the due time.
func openLoop(n int, interval time.Duration, conns int, do func(i int) error) []sample {
	out := make([]sample, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].sent = time.Now()
				out[i].err = do(i)
				out[i].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		out[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs op from each of clients goroutines back to back until d
// has passed, and returns every completed operation's latency in ms and
// the number of operations that failed.
func closedLoop(clients int, d time.Duration, op func(client int) error) (lat []float64, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				t0 := time.Now()
				err := op(c)
				ms := msSince(t0)
				mu.Lock()
				if err != nil {
					failed++
				} else {
					lat = append(lat, ms)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat, failed
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A server slower than the schedule builds a queue. Latency counted from
// the due time must include the wait for a free connection, so it grows
// along the schedule, and the generator must report itself late.
func TestOpenLoopTimesFromDueTimeAgainstSlowServer(t *testing.T) {
	const service = 40 * time.Millisecond
	const interval = 10 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	const n = 10
	samples := openLoop(n, interval, 1, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if s.latency() < s.done.Sub(s.sent) {
			t.Errorf("request %d: latency %v shorter than its service %v", i, s.latency(), s.done.Sub(s.sent))
		}
		// One connection serves requests one after another, so request i
		// completes no earlier than (i+1) service times after the start,
		// however early it was due.
		if min := time.Duration(i+1)*service - time.Duration(i)*interval; s.latency() < min {
			t.Errorf("request %d: latency %v, want at least %v", i, s.latency(), min)
		}
	}
	last := samples[n-1]
	if wantLate := time.Duration(n-1) * (service - interval); last.late() < wantLate*8/10 {
		t.Errorf("last request sent %v late, want about %v", last.late(), wantLate)
	}
	if samples[n-1].latency() <= samples[0].latency() {
		t.Errorf("latency did not grow along the queue: first %v, last %v", samples[0].latency(), samples[n-1].latency())
	}
}

// A server faster than the schedule leaves the generator on time.
func TestOpenLoopOnTimeAgainstFastServer(t *testing.T) {
	samples := openLoop(5, 10*time.Millisecond, 2, func(int) error { return nil })
	for i, s := range samples {
		if s.late() > 5*time.Millisecond {
			t.Errorf("request %d sent %v late against an idle server", i, s.late())
		}
		if want := time.Duration(i) * 10 * time.Millisecond; s.due.Sub(samples[0].due) != want {
			t.Errorf("request %d due %v after the first, want %v", i, s.due.Sub(samples[0].due), want)
		}
	}
}

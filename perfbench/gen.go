package main

import (
	"math/rand"
	"time"
)

// clock is the open-loop sender's time source; tests substitute a fake
// one to stall responses deterministically.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		sleepFor(d)
	}
}

// sample is one scheduled request: when it was due, when it was sent and
// when its response completed, as offsets from the schedule's origin.
type sample struct {
	due, start, end time.Duration
	err             error
}

// latency is measured from the due time, so a stalled response also
// counts against every request scheduled behind it.
func (s sample) latency() time.Duration { return s.end - s.due }

// roundTrip is the time from sending the request to its complete
// response: the latency the client sees, without the generator's lateness.
func (s sample) roundTrip() time.Duration { return s.end - s.start }

// lateness is how long after its due time the request was sent.
func (s sample) lateness() time.Duration { return s.start - s.due }

// openLoop sends request i at origin+due[i] whatever happened to earlier
// requests. One caller sends one request at a time, so a request due
// while an earlier one is outstanding goes out as soon as that one ends,
// and the wait shows in its latency.
func openLoop(clk clock, origin time.Time, due []time.Duration, do func(i int) error) []sample {
	out := make([]sample, len(due))
	for i, d := range due {
		clk.SleepUntil(origin.Add(d))
		start := clk.Now().Sub(origin)
		err := do(i)
		out[i] = sample{due: d, start: start, end: clk.Now().Sub(origin), err: err}
	}
	return out
}

// poissonSchedule returns due offsets of a Poisson arrival process at rate
// per second over [from, from+span), drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, from, span time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(from)
	end := float64(from + span)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

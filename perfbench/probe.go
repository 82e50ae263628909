package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"
)

// The machine this benchmark runs on shares its cores: measured over
// minutes, the same CSV and synthesis work runs up to a third faster or
// slower from one half-minute to the next. The probe is fixed work written
// against the standard library only — parsing a fixed CSV shaped like the
// postal data — so no change to the program alters it. It runs only while
// the program under test is idle (between passes or rounds, after a forced
// GC), so it shares neither CPU nor heap with the measured work. The
// end-to-end timings are reported at the speed where the probe takes
// nominalProbe; their raw values are per-layer metrics. synth-paper and
// batch-rectify scale by the run's median probe. serve-mixed scales each
// set-up and each quiet round by the probe timed right after it, with no
// request outstanding; its mixed phase, where the daemon is never idle,
// is not probed and gives only per-layer metrics. serve-mixed's
// single-row round trips are scaled by a second probe, echoProbe, instead.

// nominalProbe is the reference probe time timings are scaled to.
const nominalProbe = 10 * time.Millisecond

// nominalEcho is the reference loopback round trip (echoProbe) that
// serve-mixed's single-row round trips are scaled to.
const nominalEcho = 20 * time.Microsecond

// echoTrips is how many round trips one echo probe times.
const echoTrips = 200

// probeCSV is 40k rows of postal-shaped categorical data, the same bytes on
// every run and seed.
var probeCSV = func() []byte {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString("PostalCode,City,State,Country\n")
	for i := 0; i < 40_000; i++ {
		c := rng.Intn(256)
		fmt.Fprintf(&b, "PostalCode_v%d,City_v%d,State_v%d,Country_v%d\n", c, c/2, c/4, c/4%2)
	}
	return b.Bytes()
}()

// machineProbe times one parse of probeCSV.
func machineProbe() time.Duration {
	t0 := time.Now()
	r := csv.NewReader(bytes.NewReader(probeCSV))
	r.ReuseRecord = true
	fields := 0
	for {
		rec, err := r.Read()
		if err != nil {
			break // io.EOF: the bytes are well-formed
		}
		fields += len(rec)
	}
	d := time.Since(t0)
	if fields != 4*40_001 {
		panic(fmt.Sprintf("probe parsed %d fields", fields))
	}
	return d
}

// speed collects probe times through a run.
type speed struct{ probes []float64 }

// probe collects the garbage the program left, then times the probe and
// returns its time in ms. Call it only while no program work is running.
func (s *speed) probe() float64 {
	runtime.GC()
	p := ms(machineProbe())
	s.probes = append(s.probes, p)
	return p
}

// toReference is the factor that brings a time measured next to a probe
// that took probeMS to the reference speed; a rate is divided by it.
func toReference(probeMS float64) float64 { return ms(nominalProbe) / probeMS }

// scale is the factor that brings a time measured in this run to the
// reference speed: nominalProbe over the run's median probe time.
func (s *speed) scale() float64 { return toReference(median(s.probes)) }

// record reports the median probe time and the end-to-end timings as they
// were measured, as per-layer metrics.
func (s *speed) record(rep *report) {
	rep.layer["machine.probe_ms"] = median(s.probes)
	for _, name := range []string{"setup_s", "latency_ms", "rows_per_s"} {
		rep.layer["raw."+name] = rep.e2e[name]
	}
}

// normalize records the raw timings, then scales the end-to-end ones to
// the reference speed.
func (s *speed) normalize(rep *report) {
	s.record(rep)
	k := s.scale()
	rep.e2e["setup_s"] *= k
	rep.e2e["latency_ms"] *= k
	rep.e2e["rows_per_s"] /= k
}

// echoProbe times echoTrips round trips of a 200-byte message through a
// standard-library echo server over a fresh loopback connection and
// returns the median in ms. A single-row check's round trip is mostly
// this kernel and netpoller path; the CSV probe, all user-space work,
// slows far more than it when other tenants load the machine.
func echoProbe() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		buf := make([]byte, 200)
		for err == nil {
			if _, err = io.ReadFull(c, buf); err == nil {
				_, err = c.Write(buf)
			}
		}
		if err == io.EOF { // the client closed the connection
			err = nil
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		served <- err
	}()
	trips, err := echoTrip(ln.Addr().String())
	if cerr := ln.Close(); err == nil {
		err = cerr
	}
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return 0, fmt.Errorf("echo probe: %w", err)
	}
	return median(trips), nil
}

// echoTrip dials addr, times echoTrips round trips and closes the
// connection.
func echoTrip(addr string) ([]float64, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 200)
	trips := make([]float64, 0, echoTrips)
	for i := 0; i < echoTrips && err == nil; i++ {
		t0 := time.Now()
		if _, err = c.Write(msg); err == nil {
			_, err = io.ReadFull(c, msg)
		}
		trips = append(trips, ms(time.Since(t0)))
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return trips, err
}

package profiler

import (
	"bytes"
	"compress/gzip"
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// spin burns CPU for roughly d so the 100Hz CPU sampler collects
// samples attributable to this function.
//
//go:noinline
func spin(d time.Duration) uint64 {
	var acc uint64 = 1
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<12; i++ {
			acc = acc*1664525 + 1013904223
		}
	}
	return acc
}

// captureLabeledCPU produces one real runtime/pprof CPU profile whose
// samples carry a pprof label, retrying in case a sparse window catches
// no labeled samples.
func captureLabeledCPU(t *testing.T) []byte {
	t.Helper()
	for attempt := 0; attempt < 3; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatalf("StartCPUProfile: %v", err)
		}
		pprof.Do(context.Background(), pprof.Labels("test_region", "hot"), func(context.Context) {
			spin(300 * time.Millisecond)
		})
		pprof.StopCPUProfile()
		p, err := ParseProfile(buf.Bytes())
		if err == nil && len(p.Samples) > 0 {
			return buf.Bytes()
		}
	}
	t.Skip("CPU sampler collected no samples (starved host)")
	return nil
}

func TestParseProfileCPUWithLabels(t *testing.T) {
	data := captureLabeledCPU(t)
	p, err := ParseProfile(data)
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	// Go CPU profiles are [samples/count, cpu/nanoseconds].
	vi := p.ValueIndex("cpu")
	if vi < 0 || vi >= len(p.SampleTypes) {
		t.Fatalf("no cpu sample type in %+v", p.SampleTypes)
	}
	if p.SampleTypes[vi].Unit != "nanoseconds" {
		t.Fatalf("cpu unit = %q, want nanoseconds", p.SampleTypes[vi].Unit)
	}
	var total int64
	labeled := false
	named := 0
	for i := range p.Samples {
		s := &p.Samples[i]
		if vi >= len(s.Values) {
			t.Fatalf("sample %d has %d values, want > %d", i, len(s.Values), vi)
		}
		total += s.Values[vi]
		if s.Labels["test_region"] == "hot" {
			labeled = true
		}
		if p.LeafFunction(s) != "?" {
			named++
		}
	}
	if total <= 0 {
		t.Fatalf("total cpu nanoseconds = %d, want > 0", total)
	}
	if !labeled {
		t.Fatalf("no sample carried the test_region label (%d samples)", len(p.Samples))
	}
	if named == 0 {
		t.Fatalf("no sample resolved to a named leaf function")
	}
	if p.Period <= 0 {
		t.Fatalf("period = %d, want > 0", p.Period)
	}
}

func TestParseProfileHeap(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("heap WriteTo: %v", err)
	}
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseProfile(heap): %v", err)
	}
	found := false
	for _, st := range p.SampleTypes {
		if st.Type == "inuse_space" {
			found = true
		}
	}
	if !found {
		t.Fatalf("heap profile sample types %+v missing inuse_space", p.SampleTypes)
	}
}

func TestParseProfileErrors(t *testing.T) {
	// A valid 6-byte profile whose gzip trailer claims only 4 bytes.
	var short bytes.Buffer
	zw := gzip.NewWriter(&short)
	zw.Write([]byte{0x12, 0x02, 0x10, 0x05, 0x32, 0x00})
	zw.Close()
	short.Bytes()[short.Len()-4] = 4
	cases := map[string][]byte{
		"short trailer": short.Bytes(),
		"empty":         nil,
		"garbage":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"bad gzip":      {0x1f, 0x8b, 0x00, 0x01, 0x02},
		"no str table":  {0x48, 0x01}, // just time_nanos=1
		"truncated len": {0x32, 0x7f}, // string_table claiming 127 bytes, none present
	}
	for name, data := range cases {
		if _, err := ParseProfile(data); err == nil {
			t.Errorf("%s: ParseProfile accepted malformed input", name)
		}
	}
}

// TestParseProfileCapsDecompressedSize: a gzip of zeros four times the
// cap is refused with an error naming the cap, after allocating at most
// about twice the cap.
func TestParseProfileCapsDecompressedSize(t *testing.T) {
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 4*maxProfileBytes/len(zeros); i++ {
		zw.Write(zeros)
	}
	zw.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseProfile(z.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxProfileBytes)) {
		t.Fatalf("ParseProfile(%d-byte gzip of zeros) = %v, want an error naming the %d-byte cap",
			z.Len(), err, maxProfileBytes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxProfileBytes+1<<20 {
		t.Fatalf("allocated %d bytes, want at most about %d", got, 2*maxProfileBytes)
	}
}

func TestParseProfileTruncatedReal(t *testing.T) {
	data := captureLabeledCPU(t)
	// Corrupt the gzip stream: parse must fail loudly, not mis-decode.
	if _, err := ParseProfile(data[:len(data)/2]); err == nil {
		t.Fatalf("ParseProfile accepted a truncated artifact")
	}
}

func TestLeafFunctionUnknown(t *testing.T) {
	p := &Profile{Locations: map[uint64]Location{}, Functions: map[uint64]Function{}}
	if got := p.LeafFunction(&Sample{}); got != "?" {
		t.Fatalf("LeafFunction(no locations) = %q, want ?", got)
	}
	if got := p.LeafFunction(&Sample{LocationIDs: []uint64{42}}); got != "?" {
		t.Fatalf("LeafFunction(unknown location) = %q, want ?", got)
	}
}

package telemetry

import (
	"reflect"
	"testing"
)

// logSink appends "<name> <opened|ended> <stage>@<place>/<flow>" for every
// stage it is fed.
type logSink struct {
	name string
	log  *[]string
}

func (s *logSink) StageOpened(ev StageEvent) { s.add("opened", ev) }
func (s *logSink) StageEnded(ev StageEvent)  { s.add("ended", ev) }

func (s *logSink) add(what string, ev StageEvent) {
	*s.log = append(*s.log, s.name+" "+what+" "+string(ev.Stage)+"@"+ev.Place+"/"+ev.Flow)
}

// TestSubscribe: sinks see their stages in subscription order;
// subscribing a sink again replaces its stages without moving it, and
// subscribing it with no stages detaches it.
func TestSubscribe(t *testing.T) {
	var log []string
	a, b := &logSink{"a", &log}, &logSink{"b", &log}
	var p Planes
	p.Init("rp")
	appraisal := func() []string {
		log = nil
		rec := p.Recorder()
		rec.Open(StageEvent{Stage: StageAppraise, Flow: "f"})
		rec.End(rec.Begin(StageVerify), StageEvent{})
		rec.Close(StageEvent{Verdict: "PASS"})
		return log
	}
	steps := []struct {
		sink   *logSink
		stages []Stage
		want   []string
	}{
		{a, []Stage{StageAppraise}, []string{"a opened appraise@rp/f", "a ended appraise@rp/f"}},
		{b, []Stage{StageAppraise, StageVerify}, []string{
			"a opened appraise@rp/f", "b opened appraise@rp/f",
			"b ended verify@rp/f",
			"a ended appraise@rp/f", "b ended appraise@rp/f",
		}},
		{a, []Stage{StageVerify}, []string{
			"b opened appraise@rp/f",
			"a ended verify@rp/f", "b ended verify@rp/f",
			"b ended appraise@rp/f",
		}},
		{b, nil, []string{"a ended verify@rp/f"}},
		{a, nil, nil},
	}
	for i, st := range steps {
		p.Subscribe(st.sink, st.stages...)
		if got := appraisal(); !reflect.DeepEqual(got, st.want) {
			t.Fatalf("step %d: sinks saw\n%q\nwant\n%q", i, got, st.want)
		}
	}
	if rec := p.Recorder(); rec.Detailed() {
		t.Fatal("recorder still detailed with every sink detached")
	}
}

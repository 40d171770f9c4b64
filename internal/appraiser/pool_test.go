package appraiser

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pera/internal/evidence"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// poolSeed derives the pool tests' signer key: rot.NewDeterministic("sw1",
// poolSeed) signs the honest chains, and the torsion signer reuses its key.
const poolSeed = "pool-signer"

// chainKinds are the kinds of chain poolCorpus builds, in corpus order.
var chainKinds = []string{"honest", "flipped", "replayed", "unknown", "torsion"}

// poolCorpus builds n jobs of each chain kind, kind after kind: honest
// chains; flipped-byte chains (a signature byte flipped after signing);
// replayed-nonce jobs (every second job reuses the previous job's nonce,
// and so its chain); unknown-signer chains (a key the appraiser lacks);
// and torsion chains (see torsionSigner), which crypto/ed25519 rejects.
// Every job carries its own nonce but the replays. good counts the jobs
// the serial appraiser passes.
func poolCorpus(t testing.TB, signer *rot.RoT, n int) (jobs []Job, good int) {
	t.Helper()
	val := rot.Sum([]byte("golden"))
	stranger := rot.NewDeterministic("sw-unknown", []byte("pool-stranger"))
	torsion := newTorsionSigner(signer.Name(), []byte(poolSeed)) // signer's key
	for _, kind := range chainKinds {
		for i := 0; i < n; i++ {
			nonce := []byte(kind + "-" + strconv.Itoa(i))
			if kind == "replayed" && i%2 == 1 {
				nonce = []byte(kind + "-" + strconv.Itoa(i-1))
			}
			var by evidence.Signer = signer
			switch kind {
			case "unknown":
				by = stranger
			case "torsion":
				by = torsion
			}
			m := evidence.Measurement(signer.Name(), "prog", signer.Name(), evidence.DetailProgram, val, nil)
			ev := evidence.Sign(by, evidence.Seq(evidence.Nonce(nonce), m))
			if kind == "flipped" {
				sig := append([]byte(nil), ev.Signature...)
				sig[0] ^= 0xff
				ev = &evidence.Evidence{Kind: evidence.KindSig, Signer: ev.Signer, Signature: sig, Left: ev.Left}
			}
			if kind == "honest" || kind == "replayed" && i%2 == 0 {
				good++
			}
			jobs = append(jobs, Job{Subject: "sw-under-test", Evidence: ev, Nonce: nonce})
		}
	}
	return jobs, good
}

func poolAppraiser(signer *rot.RoT) *Appraiser {
	a := New("pool-appraiser", []byte("pool-test"))
	a.RegisterKey(signer.Name(), signer.Public())
	a.SetGolden(signer.Name(), "prog", evidence.DetailProgram, rot.Sum([]byte("golden")))
	return a
}

// appraiseSerial is the reference: the plain appraiser, one job after
// another, its memo emptied before each, so every verdict comes from
// full verification alone.
func appraiseSerial(a *Appraiser, jobs []Job) []Result {
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		a.EnableMemo(0)
		cert, err := a.Appraise(j.Subject, j.Evidence, j.Nonce)
		out[i] = Result{Index: i, Certificate: cert, Err: err}
	}
	return out
}

// submitAll streams jobs through Submit on a fresh pool and collects the
// results by submission index.
func submitAll(a *Appraiser, jobs []Job, workers int) []Result {
	out := make([]Result, len(jobs))
	p := NewPool(a, workers)
	p.OnResult = func(r Result) { out[r.Index] = r }
	for _, j := range jobs {
		p.Submit(j)
	}
	p.Close()
	return out
}

// TestPoolDifferential runs the differential table with the pool's memo
// cold: it has seen none of the run's chains.
func TestPoolDifferential(t *testing.T) { poolDifferential(t, false) }

// TestPoolDifferentialMemo runs the differential table with the pool's
// memo warm: every chain of the run was appraised once before it, so the
// memo answers every signature. Memoized verification must never change
// a verdict, must not keep one the serial path would not reach, and
// re-presented chains must hit.
func TestPoolDifferentialMemo(t *testing.T) { poolDifferential(t, true) }

// poolDifferential requires the pool to render exactly the reference
// serial appraiser's verdict, reason, error, subject, nonce and evidence
// digest for every job submitted to it, and the same set of serials: 1,
// 2, 4 and 8 workers, on an appraiser whose memo is cold or warm. Each
// case appraises every chain kind on its own, then the whole corpus
// followed by two nonce-less re-presentations of it (each appraised
// again; memo hits). Certificate bytes may differ, since a worker
// certifies the memo-answered jobs queued behind each other with one
// signature, but every pooled certificate must verify under the
// appraiser's key, and the re-presented corpus must yield batched
// certificates. The torsion kind pins one signature semantics: a
// cofactored check over a window of torsion chains would PASS what
// crypto/ed25519 rejects, and in the memo that PASS would outlive the
// pool.
func poolDifferential(t *testing.T, warm bool) {
	signer := rot.NewDeterministic("sw1", []byte(poolSeed))
	const n = 8
	corpus, good := poolCorpus(t, signer, n)
	runs := map[string][]Job{}
	for k, kind := range chainKinds {
		runs[kind] = corpus[k*n : (k+1)*n]
	}
	all := append([]Job(nil), corpus...)
	for round := 0; round < 2; round++ {
		for _, j := range corpus {
			all = append(all, Job{Subject: j.Subject, Evidence: j.Evidence})
		}
	}
	runs["all"] = all
	order := append(append([]string(nil), chainKinds...), "all")

	want := map[string][]Result{}
	for _, run := range order {
		want[run] = appraiseSerial(poolAppraiser(signer), runs[run])
	}
	pass := 0
	for _, r := range want["all"][:len(corpus)] {
		if r.Err == nil && r.Certificate.Verdict {
			pass++
		}
	}
	if pass != good {
		t.Fatalf("serial appraiser passed %d of the corpus, want %d", pass, good)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d/Submit", workers), func(t *testing.T) {
			for _, run := range order {
				a := poolAppraiser(signer)
				jobs := runs[run]
				if warm {
					// Appraise every chain once, nonce-less, so the
					// replay set stays empty, then restart the serials.
					for _, j := range jobs {
						a.Appraise(j.Subject, j.Evidence, nil)
					}
					a.serial.Store(0)
				}
				got := submitAll(a, jobs, workers)
				batched := 0
				for i := range jobs {
					if w, g := describe(want[run][i]), describe(got[i]); w != g {
						t.Fatalf("%s job %d: serial %s, pool %s", run, i, w, g)
					}
					if c := got[i].Certificate; c != nil {
						if err := VerifyCertificate(a.Public(), c); err != nil {
							t.Fatalf("%s job %d: pooled certificate: %v", run, i, err)
						}
						if c.Batch != nil {
							batched++
						}
					}
				}
				if w, g := serials(want[run]), serials(got); !reflect.DeepEqual(w, g) {
					t.Fatalf("%s: serial serials %v, pool serials %v", run, w, g)
				}
				if run == "all" && batched == 0 {
					t.Fatalf("no batched certificate over the re-presented corpus")
				}
				// The memo must not carry a verdict the serial path
				// would not reach.
				for _, j := range runs["torsion"] {
					c, err := a.Appraise(j.Subject, j.Evidence, nil)
					if got := describe(Result{Certificate: c, Err: err}); !strings.HasPrefix(got, "FAIL") {
						t.Fatalf("%s: torsion chain re-appraised after the pool: %s", run, got)
					}
				}
				if st := a.MemoStats(); run == "all" && st.HitRate() < 0.5 {
					t.Fatalf("memo hit rate %.2f over the re-presented corpus, want >= 0.5: %+v", st.HitRate(), st)
				}
			}
		})
	}
}

// describe renders a result's outcome and what its certificate
// certifies, but for the serial, for comparison.
func describe(r Result) string {
	if r.Err != nil {
		return "error " + r.Err.Error()
	}
	c := r.Certificate
	return fmt.Sprintf("%s %s (subject %q, nonce %x, evidence %x)",
		verdictString(c.Verdict), c.Reason, c.Subject, c.Nonce, c.EvidenceDigest[:])
}

// serials lists the results' certificate serials in ascending order.
func serials(rs []Result) []uint64 {
	var out []uint64
	for _, r := range rs {
		if r.Certificate != nil {
			out = append(out, r.Certificate.Serial)
		}
	}
	slices.Sort(out)
	return out
}

// queuedBatchSizes submits a blocker job to a one-worker pool, holds
// the worker in OnResult until every job is queued behind it, and
// returns the batch size each job was certified in (1 for a single
// certificate).
func queuedBatchSizes(t *testing.T, a *Appraiser, blocker Job, jobs []Job) []uint32 {
	t.Helper()
	p := NewPool(a, 1)
	blocked, release := make(chan struct{}), make(chan struct{})
	sizes := make([]uint32, len(jobs)+1)
	p.OnResult = func(r Result) {
		if r.Index == 0 {
			close(blocked)
			<-release
		}
		if r.Err != nil || !r.Certificate.Verdict {
			t.Errorf("job %d: %s", r.Index, describe(r))
			return
		}
		if err := VerifyCertificate(a.Public(), r.Certificate); err != nil {
			t.Errorf("job %d: %v", r.Index, err)
		}
		sizes[r.Index] = 1
		if b := r.Certificate.Batch; b != nil {
			sizes[r.Index] = b.Size
		}
	}
	p.Submit(blocker)
	<-blocked
	for _, j := range jobs {
		p.Submit(j)
	}
	close(release)
	p.Close()
	return sizes[1:]
}

// TestPoolBatchRule: a worker certifies the memo-answered jobs queued
// behind each other with one signature, up to maxBatch of them, and a
// job whose check verified a signature closes its batch, so chains new
// to the memo are never batched behind each other.
func TestPoolBatchRule(t *testing.T) {
	signer := rot.NewDeterministic("sw1", []byte(poolSeed))
	val := rot.Sum([]byte("golden"))
	chain := func(nonce string) Job {
		m := evidence.Measurement(signer.Name(), "prog", signer.Name(), evidence.DetailProgram, val, nil)
		return Job{Subject: "sw", Evidence: evidence.Sign(signer, evidence.Seq(evidence.Nonce([]byte(nonce)), m))}
	}
	a := poolAppraiser(signer)
	a.EnableMemo(0)
	blocker := chain("blocker")
	fresh := make([]Job, 2*maxBatch)
	for i := range fresh {
		fresh[i] = chain("fresh-" + strconv.Itoa(i))
	}
	sizes := func(jobs []Job) string { return fmt.Sprint(queuedBatchSizes(t, a, blocker, jobs)) }
	repeat := func(size int) string {
		return strings.TrimSuffix(strings.Repeat(strconv.Itoa(size)+" ", len(fresh)), " ")
	}
	if got, want := sizes(fresh), "["+repeat(1)+"]"; got != want {
		t.Fatalf("chains new to the memo: batch sizes %s, want %s", got, want)
	}
	if got, want := sizes(fresh), "["+repeat(maxBatch)+"]"; got != want {
		t.Fatalf("re-presented chains: batch sizes %s, want %s", got, want)
	}
	mixed := []Job{fresh[0], fresh[1], fresh[2], chain("new"), fresh[3], fresh[4], fresh[5]}
	if got, want := sizes(mixed), "[4 4 4 4 3 3 3]"; got != want {
		t.Fatalf("a new chain among re-presented ones: batch sizes %s, want %s", got, want)
	}
}

// TestPoolNonceOrdering submits many jobs sharing one nonce and checks
// exactly the first submission wins the replay check, deterministically,
// at every pool width.
func TestPoolNonceOrdering(t *testing.T) {
	signer := rot.NewDeterministic("sw1", []byte(poolSeed))
	val := rot.Sum([]byte("golden"))
	nonce := []byte("shared-nonce")
	m := evidence.Measurement(signer.Name(), "prog", signer.Name(), evidence.DetailProgram, val, nil)
	ev := evidence.Sign(signer, evidence.Seq(evidence.Nonce(nonce), m))
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Subject: "sw", Evidence: ev, Nonce: nonce}
	}
	for _, workers := range []int{1, 4} {
		results := submitAll(poolAppraiser(signer), jobs, workers)
		if results[0].Err != nil {
			t.Fatalf("workers=%d: first submission should win the replay check: %v", workers, results[0].Err)
		}
		for i := 1; i < len(results); i++ {
			if results[i].Err != ErrNonceReplayed {
				t.Fatalf("workers=%d job %d: want ErrNonceReplayed, got %v", workers, i, results[i].Err)
			}
		}
	}
}

// TestPoolSubmitStream exercises the streaming Submit/OnResult/Close path
// under contention from multiple producers.
func TestPoolSubmitStream(t *testing.T) {
	signer := rot.NewDeterministic("sw1", []byte(poolSeed))
	jobs, good := poolCorpus(t, signer, 20)

	p := NewPool(poolAppraiser(signer), 4)
	var mu sync.Mutex
	got := map[int]bool{}
	p.OnResult = func(r Result) {
		mu.Lock()
		got[r.Index] = true
		mu.Unlock()
	}
	var producers sync.WaitGroup
	for part := 0; part < 4; part++ {
		producers.Add(1)
		go func(part int) {
			defer producers.Done()
			for i := part * 25; i < (part+1)*25; i++ {
				p.Submit(jobs[i])
			}
		}(part)
	}
	producers.Wait()
	st := p.Close()
	if st.Jobs != 100 {
		t.Fatalf("jobs completed = %d, want 100", st.Jobs)
	}
	if len(got) != 100 {
		t.Fatalf("OnResult saw %d distinct indices, want 100", len(got))
	}
	if st.Pass == 0 || st.Fail == 0 || st.Errors == 0 {
		t.Fatalf("expected mixed outcomes over the corpus, got %+v", st)
	}
	if int(st.Pass) > good {
		t.Fatalf("pass=%d exceeds good corpus size %d", st.Pass, good)
	}
}

// TestPoolTracesOneAppraisal: a pooled appraisal is the appraiser's own
// appraise envelope, traced once. With a 1-in-1 tracer set through both
// the pool and the appraiser, one nonce-less job records one verify, one
// appraise and one verdict span, all under the flow every plane derives
// from the chain ("-" without a nonce), none under the job's subject.
func TestPoolTracesOneAppraisal(t *testing.T) {
	signer := rot.NewDeterministic("sw1", []byte(poolSeed))
	a := poolAppraiser(signer)
	tr := telemetry.NewFlowTracer(64)
	tr.SetSampleEvery(1)
	p := NewPool(a, 1)
	p.SetTracer(tr)
	a.SetTracer(tr)
	m := evidence.Measurement(signer.Name(), "prog", signer.Name(), evidence.DetailProgram, rot.Sum([]byte("golden")), nil)
	p.Submit(Job{Subject: "client", Evidence: evidence.Sign(signer, m)})
	if st := p.Close(); st.Pass != 1 {
		t.Fatalf("pool: %+v", st)
	}
	got := map[string]int{}
	for _, s := range tr.Spans() {
		got[string(s.Stage)+" under "+s.Flow]++
	}
	want := map[string]int{"verify under -": 1, "appraise under -": 1, "verdict under -": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
}

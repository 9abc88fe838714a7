package core

import (
	"testing"
	"time"

	"repro/internal/tasklang"
	"repro/internal/tvm"
)

func TestQoCNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   QoC
		want QoC
	}{
		{"zero value", QoC{}, QoC{Mode: QoCBestEffort, Replicas: 1}},
		{"best effort forces 1 replica", QoC{Mode: QoCBestEffort, Replicas: 5}, QoC{Mode: QoCBestEffort, Replicas: 1}},
		{"voting forces 3 replicas", QoC{Mode: QoCVoting, Replicas: 1}, QoC{Mode: QoCVoting, Replicas: 3}},
		{"voting keeps 5", QoC{Mode: QoCVoting, Replicas: 5}, QoC{Mode: QoCVoting, Replicas: 5}},
		{"redundant keeps 2", QoC{Mode: QoCRedundant, Replicas: 2}, QoC{Mode: QoCRedundant, Replicas: 2}},
		{"negative retries clamped", QoC{MaxRetries: -3}, QoC{Replicas: 1, MaxRetries: 0}},
		{"negative deadline clamped", QoC{Deadline: -time.Second}, QoC{Replicas: 1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Normalize(); got != tc.want {
				t.Fatalf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestQoCValidate(t *testing.T) {
	if err := (QoC{Mode: QoCVoting, Replicas: 3}).Validate(); err != nil {
		t.Fatalf("valid QoC rejected: %v", err)
	}
	if err := (QoC{Replicas: 100}).Validate(); err == nil {
		t.Fatal("100 replicas accepted")
	}
	if err := (QoC{MaxRetries: 1000}).Validate(); err == nil {
		t.Fatal("1000 retries accepted")
	}
	if err := (QoC{Mode: QoCMode(99)}).Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestMajority(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4}
	for n, want := range cases {
		if got := Majority(n); got != want {
			t.Errorf("Majority(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestResultHashDistinguishesOutputs(t *testing.T) {
	a := Result{Return: tvm.Int(1), Emitted: []tvm.Value{tvm.Str("x")}}
	b := Result{Return: tvm.Int(1), Emitted: []tvm.Value{tvm.Str("x")}}
	c := Result{Return: tvm.Int(2), Emitted: []tvm.Value{tvm.Str("x")}}
	if a.Hash() != b.Hash() {
		t.Fatal("identical results hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different results hash identically")
	}
}

func TestResultOK(t *testing.T) {
	if !(&Result{Status: StatusOK}).OK() {
		t.Fatal("StatusOK not OK")
	}
	for _, s := range []ResultStatus{StatusFault, StatusLost, StatusRejected} {
		if (&Result{Status: s}).OK() {
			t.Fatalf("%s reported OK", s)
		}
	}
}

func TestClassSpeedFactorOrdering(t *testing.T) {
	order := []DeviceClass{ClassServer, ClassDesktop, ClassLaptop, ClassMobile, ClassEmbedded}
	for i := 1; i < len(order); i++ {
		if ClassSpeedFactor(order[i-1]) <= ClassSpeedFactor(order[i]) {
			t.Fatalf("%s should be faster than %s", order[i-1], order[i])
		}
	}
	if ClassSpeedFactor(ClassUnknown) != 1.0 {
		t.Fatal("unknown class should default to 1.0")
	}
}

func TestExpectedExec(t *testing.T) {
	p := &ProviderInfo{Speed: 10} // 10 M ops/s
	if got := p.ExpectedExec(10_000_000); got != time.Second {
		t.Fatalf("ExpectedExec = %v, want 1s", got)
	}
	zero := &ProviderInfo{}
	if got := zero.ExpectedExec(1000); got != 0 {
		t.Fatalf("zero-speed provider should estimate 0, got %v", got)
	}
}

func TestJobSpecValidate(t *testing.T) {
	prog, err := tasklang.Compile(`func main(a int, b int) int { return a + b; }`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	good := &JobSpec{
		Program: data,
		Params:  [][]tvm.Value{{tvm.Int(1), tvm.Int(2)}, {tvm.Int(3), tvm.Int(4)}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	bad := &JobSpec{Program: data, Params: [][]tvm.Value{{tvm.Int(1)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("param-count mismatch accepted")
	}
	if err := (&JobSpec{Params: [][]tvm.Value{{}}}).Validate(); err == nil {
		t.Fatal("empty program accepted")
	}
	if err := (&JobSpec{Program: data}).Validate(); err == nil {
		t.Fatal("empty params accepted")
	}
	if err := (&JobSpec{Program: []byte("junk"), Params: [][]tvm.Value{{}}}).Validate(); err == nil {
		t.Fatal("garbage program accepted")
	}
}

func TestHashProgramDiffers(t *testing.T) {
	a := HashProgram([]byte("aaa"))
	b := HashProgram([]byte("aab"))
	if a == b {
		t.Fatal("different programs share an ID")
	}
	if a != HashProgram([]byte("aaa")) {
		t.Fatal("hash not deterministic")
	}
}

// TestResultHashIsTheVoteHash pins core.Result.Hash to the formula voting has
// always compared — HashValues over the return value and then the emitted
// values — and to tvm.Result.Hash, without allocating per vote.
func TestResultHashIsTheVoteHash(t *testing.T) {
	r := Result{
		Return:  tvm.Arr(tvm.Int(3), tvm.Str("x")),
		Emitted: []tvm.Value{tvm.Float(1.5), tvm.Nil(), tvm.Arr(tvm.Bool(true))},
	}
	for _, emitted := range [][]tvm.Value{nil, {}, r.Emitted} {
		r.Emitted = emitted
		want := tvm.HashValues(append([]tvm.Value{r.Return}, r.Emitted...))
		vm := tvm.Result{Return: r.Return, Emitted: r.Emitted}
		if r.Hash() != want || vm.Hash() != want {
			t.Fatalf("%d emitted: core %d, tvm %d, want %d", len(emitted), r.Hash(), vm.Hash(), want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Hash() }); n != 0 {
		t.Fatalf("Result.Hash allocates %v times per call", n)
	}
}

func TestStringers(t *testing.T) {
	if QoCVoting.String() != "voting" || QoCMode(9).String() == "" {
		t.Fatal("QoCMode.String broken")
	}
	if StatusLost.String() != "lost" || ResultStatus(9).String() == "" {
		t.Fatal("ResultStatus.String broken")
	}
	if ClassMobile.String() != "mobile" || DeviceClass(9).String() == "" {
		t.Fatal("DeviceClass.String broken")
	}
}

package trace

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"clustersim/internal/isa"
	"clustersim/internal/xrand"
)

func mkInst(op isa.Op, dst isa.Reg, srcs ...isa.Reg) isa.Inst {
	in := isa.Inst{Op: op, Dst: dst, Src: [2]isa.Reg{isa.NoReg, isa.NoReg}}
	copy(in.Src[:], srcs)
	return in
}

func TestBuilderRegisterDeps(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))            // 0: writes r1
	b.Append(mkInst(isa.IntALU, 2, 1))         // 1: r1 -> r2
	b.Append(mkInst(isa.IntALU, 1, 2))         // 2: r2 -> r1 (redefines r1)
	b.Append(mkInst(isa.IntALU, 3, 1, 2))      // 3: r1,r2 -> r3
	b.Append(mkInst(isa.Branch, isa.NoReg, 3)) // 4: r3
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int32{{None, None}, {0, None}, {1, None}, {2, 1}, {3, None}}
	for i, w := range want {
		if tr.Deps[i].Src != w {
			t.Errorf("inst %d deps = %v, want %v", i, tr.Deps[i].Src, w)
		}
	}
}

func TestBuilderUnwrittenSourceHasNoDep(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 5, 9)) // r9 never written
	tr := b.Trace()
	if tr.Deps[0].Src[0] != None {
		t.Fatalf("dep on unwritten register = %d, want None", tr.Deps[0].Src[0])
	}
}

func TestBuilderStoreLoadDep(t *testing.T) {
	b := NewBuilder(0)
	st := mkInst(isa.Store, isa.NoReg, 1, 2)
	st.Addr = 0x100
	b.Append(st) // 0
	ld := mkInst(isa.Load, 3, 4)
	ld.Addr = 0x100
	b.Append(ld) // 1: should forward from store 0
	ld2 := mkInst(isa.Load, 5, 4)
	ld2.Addr = 0x108
	b.Append(ld2) // 2: different address, no mem dep
	st2 := mkInst(isa.Store, isa.NoReg, 1, 2)
	st2.Addr = 0x100
	b.Append(st2) // 3: newer store
	ld3 := mkInst(isa.Load, 6, 4)
	ld3.Addr = 0x100
	b.Append(ld3) // 4: forwards from store 3, not 0
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Deps[1].Mem != 0 {
		t.Errorf("load 1 mem dep = %d, want 0", tr.Deps[1].Mem)
	}
	if tr.Deps[2].Mem != None {
		t.Errorf("load 2 mem dep = %d, want None", tr.Deps[2].Mem)
	}
	if tr.Deps[4].Mem != 3 {
		t.Errorf("load 4 mem dep = %d, want 3", tr.Deps[4].Mem)
	}
}

func TestProducers(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))
	st := mkInst(isa.Store, isa.NoReg, 1)
	st.Addr = 8
	b.Append(st)
	ld := mkInst(isa.Load, 2, 1)
	ld.Addr = 8
	b.Append(ld)
	tr := b.Trace()
	got := tr.Producers(2, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Producers(2) = %v, want [0 1]", got)
	}
}

// randomInsts builds a structurally valid random instruction stream.
func randomInsts(r *xrand.Rand, n int) []isa.Inst {
	insts := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		op := isa.Op(r.Intn(int(isa.NumOps)))
		in := isa.Inst{
			Op:  op,
			PC:  uint64(0x1000 + 4*r.Intn(256)),
			Src: [2]isa.Reg{isa.NoReg, isa.NoReg},
			Dst: isa.NoReg,
		}
		for s := 0; s < 2; s++ {
			if r.Bool(0.7) {
				in.Src[s] = isa.Reg(r.Intn(isa.NumRegs))
			}
		}
		if op != isa.Store && op != isa.Branch {
			in.Dst = isa.Reg(r.Intn(isa.NumRegs))
		}
		if op.IsMem() {
			in.Addr = uint64(r.Intn(64)) * 8
		}
		if op.IsBranch() {
			in.Taken = r.Bool(0.5)
		}
		insts = append(insts, in)
	}
	return insts
}

func TestRebuildValidatesRandomStreams(t *testing.T) {
	r := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		tr := Rebuild(randomInsts(r, 500))
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))
	b.Append(mkInst(isa.IntALU, 2, 1))
	tr := b.Trace()

	tr.Deps[1].Src[0] = 5 // out of range
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted out-of-range dep")
	}
	tr.Deps[1].Src[0] = None
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "absent") {
		// dep removed but src register still present -> mismatch direction:
		// actually None deps on present srcs are legal (unwritten reg), so
		// reset and corrupt differently.
		_ = err
	}
	tr.Deps[1].Src[0] = 0
	tr.Insts[0].Dst = 9 // producer no longer writes r1
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted mismatched producer register")
	}
}

func TestValidateDetectsBadMemDep(t *testing.T) {
	b := NewBuilder(0)
	st := mkInst(isa.Store, isa.NoReg, 1)
	st.Addr = 16
	b.Append(st)
	ld := mkInst(isa.Load, 2)
	ld.Addr = 16
	b.Append(ld)
	tr := b.Trace()
	tr.Insts[0].Addr = 24
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted address-mismatched mem dep")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := xrand.New(123)
	tr := Rebuild(randomInsts(r, 2000))
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Insts {
		if tr.Insts[i] != got.Insts[i] {
			t.Fatalf("inst %d mismatch: %v vs %v", i, tr.Insts[i], got.Insts[i])
		}
		if tr.Deps[i] != got.Deps[i] {
			t.Fatalf("dep %d mismatch: %v vs %v", i, tr.Deps[i], got.Deps[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 300)
		tr := Rebuild(randomInsts(xrand.New(seed), n))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Insts {
			if tr.Insts[i] != got.Insts[i] {
				return false
			}
		}
		return got.Validate() == nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("Read accepted bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("Read accepted empty input")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{5, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Error("Read accepted truncated trace")
	}
	// Invalid op value.
	var buf2 bytes.Buffer
	tr := Rebuild([]isa.Inst{mkInst(isa.IntALU, 1)})
	if err := Write(&buf2, tr); err != nil {
		t.Fatal(err)
	}
	data := buf2.Bytes()
	data[len(data)-2] = 0xEE // op byte of sole record
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("Read accepted invalid op")
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuilder(0)
	b.Append(mkInst(isa.IntALU, 1))
	b.Append(mkInst(isa.Load, 2))
	br := mkInst(isa.Branch, isa.NoReg, 1)
	br.Taken = true
	b.Append(br)
	b.Append(mkInst(isa.Branch, isa.NoReg, 2))
	tr := b.Trace()
	s := tr.Summarize()
	if s.Total != 4 || s.Branches != 2 || s.Taken != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Frac(isa.Load) != 0.25 {
		t.Fatalf("Frac(Load) = %v", s.Frac(isa.Load))
	}
	var empty Stats
	if empty.Frac(isa.Load) != 0 {
		t.Fatal("empty stats Frac must be 0")
	}
}

// TestDerivedBuildsOncePerKey pins Derived's contract under concurrent
// first use: every caller of one key gets the value a single build
// produced, and distinct keys build independently.
func TestDerivedBuildsOncePerKey(t *testing.T) {
	tr := Rebuild([]isa.Inst{mkInst(isa.IntALU, 1), mkInst(isa.IntALU, 2, 1)})
	type key struct{ n int }
	var builds [2]atomic.Int64
	var wg sync.WaitGroup
	got := make([]any, 16)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % 2
			got[g] = tr.Derived(key{k}, func() any {
				builds[k].Add(1)
				return new(int)
			})
		}(g)
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
	}
	for g := range got {
		if got[g] != got[g%2] {
			t.Errorf("caller %d got a different value than caller %d", g, g%2)
		}
	}
	if got[0] == got[1] {
		t.Error("distinct keys share one value")
	}
}

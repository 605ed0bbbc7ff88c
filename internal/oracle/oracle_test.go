package oracle

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func grantingOracle(k int) *Oracle {
	// Probability-1 merit: every getToken grants.
	return New(Config{K: k, Merits: []float64{1, 1, 1, 1}, Seed: 7})
}

func TestGetTokenAlwaysGrantsAtP1(t *testing.T) {
	o := grantingOracle(1)
	tok, ok := o.GetToken(0, "b0", "b1")
	if !ok || !tok.Valid() {
		t.Fatal("p=1 tape must grant")
	}
	if tok.Object != "b0" || tok.Merit != 0 {
		t.Fatalf("token = %+v", tok)
	}
}

func TestGetTokenNeverGrantsAtP0(t *testing.T) {
	o := New(Config{K: 1, Merits: []float64{0}, Seed: 7})
	for i := 0; i < 100; i++ {
		if _, ok := o.GetToken(0, "b0", "b1"); ok {
			t.Fatal("p=0 tape granted a token")
		}
	}
}

func TestGetTokenUnknownMerit(t *testing.T) {
	o := grantingOracle(1)
	if _, ok := o.GetToken(99, "b0", "b1"); ok {
		t.Fatal("unknown merit granted")
	}
	if _, ok := o.GetToken(-1, "b0", "b1"); ok {
		t.Fatal("negative merit granted")
	}
}

func TestConsumeFrugalK1(t *testing.T) {
	o := grantingOracle(1)
	t1, _ := o.GetToken(0, "b0", "x")
	t2, _ := o.GetToken(1, "b0", "y")

	set, ok, err := o.ConsumeToken(t1)
	if err != nil || !ok {
		t.Fatalf("first consume: ok=%v err=%v", ok, err)
	}
	if len(set) != 1 || set[0] != "x" {
		t.Fatalf("set = %v", set)
	}
	// Second consume on the same object must be refused but return the
	// set (the paper's get(K, h) in every case).
	set, ok, err = o.ConsumeToken(t2)
	if err != nil {
		t.Fatalf("second consume err: %v", err)
	}
	if ok {
		t.Fatal("k=1 allowed a second consumption")
	}
	if len(set) != 1 || set[0] != "x" {
		t.Fatalf("set after refusal = %v", set)
	}
}

func TestConsumeFrugalKN(t *testing.T) {
	const k = 3
	o := grantingOracle(k)
	inserted := 0
	for i := 0; i < 6; i++ {
		tok, _ := o.GetToken(i%4, "b0", ObjectID(rune('a'+i)))
		_, ok, err := o.ConsumeToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			inserted++
		}
	}
	if inserted != k {
		t.Fatalf("inserted = %d, want %d", inserted, k)
	}
	if got := len(o.ConsumedSet("b0")); got != k {
		t.Fatalf("|K[b0]| = %d, want %d", got, k)
	}
}

func TestConsumeProdigalUnbounded(t *testing.T) {
	o := New(Config{K: Unbounded, Merits: []float64{1}, Seed: 1})
	for i := 0; i < 50; i++ {
		tok, _ := o.GetToken(0, "b0", ObjectID(rune('a'+i%26))+ObjectID(rune('a'+i/26)))
		if _, ok, err := o.ConsumeToken(tok); err != nil || !ok {
			t.Fatalf("prodigal refused consumption %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := len(o.ConsumedSet("b0")); got != 50 {
		t.Fatalf("|K[b0]| = %d, want 50", got)
	}
	if !o.IsProdigal() {
		t.Fatal("IsProdigal")
	}
}

// TestConsumedViewIsStable: the set ConsumeToken returns is a view of
// K[h] capped at its length, so later consumptions on the same h, which
// append to K[h], leave it as it was; and a token id 0 (never granted)
// is invalid. A view handed out uncapped would grow with K[h] once a
// caller appended to it.
func TestConsumedViewIsStable(t *testing.T) {
	o := New(Config{K: Unbounded, Merits: []float64{1}, Seed: 1})
	var views [][]ObjectID
	for i := 0; i < 40; i++ {
		tok, _ := o.GetToken(0, "b0", ObjectID(fmt.Sprint("x", i)))
		set, ok, err := o.ConsumeToken(tok)
		if err != nil || !ok {
			t.Fatalf("consume %d: ok=%v err=%v", i, ok, err)
		}
		if len(set) != i+1 || cap(set) != len(set) {
			t.Fatalf("consume %d returned len %d cap %d, want both %d", i, len(set), cap(set), i+1)
		}
		views = append(views, set)
		if i%8 == 0 {
			// A caller appending to its view must not reach K[h].
			_ = append(set, "caller")
		}
	}
	for i, v := range views {
		for j, obj := range v {
			if want := ObjectID(fmt.Sprint("x", j)); obj != want {
				t.Fatalf("view %d changed at %d: %q, want %q", i, j, obj, want)
			}
		}
		if len(v) != i+1 {
			t.Fatalf("view %d has length %d, want %d", i, len(v), i+1)
		}
	}
	if _, ok, err := o.ConsumeToken(Token{ID: 0, Object: "b0"}); !errors.Is(err, ErrInvalidToken) || ok {
		t.Fatalf("token id 0: ok=%v err=%v", ok, err)
	}
}

func TestTokenReuseRejected(t *testing.T) {
	o := grantingOracle(2)
	tok, _ := o.GetToken(0, "b0", "x")
	if _, _, err := o.ConsumeToken(tok); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := o.ConsumeToken(tok); !errors.Is(err, ErrTokenReused) || ok {
		t.Fatalf("token reuse: ok=%v err=%v", ok, err)
	}
}

func TestInvalidTokenRejected(t *testing.T) {
	o := grantingOracle(2)
	if _, ok, err := o.ConsumeToken(Token{ID: 999, Object: "b0"}); !errors.Is(err, ErrInvalidToken) || ok {
		t.Fatalf("forged token: ok=%v err=%v", ok, err)
	}
	// A token replayed against a different object is also invalid.
	tok, _ := o.GetToken(0, "b0", "x")
	tok.Object = "elsewhere"
	if _, ok, err := o.ConsumeToken(tok); !errors.Is(err, ErrInvalidToken) || ok {
		t.Fatalf("re-targeted token: ok=%v err=%v", ok, err)
	}
}

func TestGrantRateMatchesMerit(t *testing.T) {
	p := 0.2
	o := New(Config{K: Unbounded, Merits: []float64{p}, Seed: 11})
	const n = 50000
	grants := 0
	for i := 0; i < n; i++ {
		if _, ok := o.GetToken(0, "b0", "c"); ok {
			grants++
		}
	}
	got := float64(grants) / n
	if math.Abs(got-p) > 5*math.Sqrt(p*(1-p)/n) {
		t.Fatalf("grant rate %v, want ~%v", got, p)
	}
}

func TestNameAndK(t *testing.T) {
	if got := NewProdigal(0, 1).Name(); got != "Θ_P" {
		t.Fatalf("name = %s", got)
	}
	if got := NewFrugal(3, 0, 1).Name(); got != "Θ_F,k=3" {
		t.Fatalf("name = %s", got)
	}
	if NewFrugal(2, 0, 1).K() != 2 {
		t.Fatal("K()")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewFrugal(0) must panic")
		}
	}()
	NewFrugal(0, 0, 1)
}

func TestDefaultMerits(t *testing.T) {
	o := New(Config{K: 1})
	if o.Merits() != 1 {
		t.Fatalf("default merits = %d", o.Merits())
	}
	if _, ok := o.GetToken(0, "b0", "x"); !ok {
		t.Fatal("default merit must grant (p=1)")
	}
}

func TestStatsCounters(t *testing.T) {
	o := grantingOracle(1)
	t1, _ := o.GetToken(0, "b0", "x")
	t2, _ := o.GetToken(1, "b0", "y")
	o.ConsumeToken(t1)
	o.ConsumeToken(t2)
	s := o.Stats()
	if s.GetCalls != 2 || s.Grants != 2 || s.ConsumeCalls != 2 || s.ConsumeOK != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestObjectsSorted(t *testing.T) {
	o := grantingOracle(1)
	for _, h := range []ObjectID{"z", "a", "m"} {
		tok, _ := o.GetToken(0, h, h+"-child")
		o.ConsumeToken(tok)
	}
	objs := o.Objects()
	if len(objs) != 3 || objs[0] != "a" || objs[2] != "z" {
		t.Fatalf("objects = %v", objs)
	}
}

// TestTheorem32KForkCoherence is the executable Theorem 3.2: every
// concurrent history of the BT-ADT composed with Θ_F,k satisfies k-Fork
// Coherence — at most k consumptions succeed per object — under arbitrary
// concurrent schedules.
func TestTheorem32KForkCoherence(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		o := New(Config{K: k, Merits: []float64{1, 1, 1, 1, 1, 1, 1, 1}, Seed: 3})
		var wg sync.WaitGroup
		for p := 0; p < 8; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					obj := ObjectID(rune('a' + i%5))
					tok, ok := o.GetToken(p, obj, ObjectID(rune('A'+p))+obj)
					if !ok {
						continue
					}
					o.ConsumeToken(tok)
				}
			}(p)
		}
		wg.Wait()
		if !o.KForkCoherent() {
			t.Fatalf("k=%d: K-fork coherence violated", k)
		}
		for _, h := range o.Objects() {
			if got := len(o.ConsumedSet(h)); got > k {
				t.Fatalf("k=%d: |K[%s]| = %d", k, h, got)
			}
		}
	}
}

// TestProperty_FrugalNeverExceedsK: random interleavings of get/consume
// never push a consumed set past k (quick-checked Theorem 3.2).
func TestProperty_FrugalNeverExceedsK(t *testing.T) {
	f := func(seed uint64, kRaw, ops uint8) bool {
		k := int(kRaw%4) + 1
		o := New(Config{K: k, Merits: []float64{1, 1}, Seed: seed})
		var pendingTokens []Token
		for i := 0; i < int(ops); i++ {
			switch {
			case i%3 == 0 && len(pendingTokens) > 0:
				tok := pendingTokens[0]
				pendingTokens = pendingTokens[1:]
				o.ConsumeToken(tok)
			default:
				obj := ObjectID(rune('a' + i%3))
				if tok, ok := o.GetToken(i%2, obj, ObjectID(rune('A'+i%26))); ok {
					pendingTokens = append(pendingTokens, tok)
				}
			}
		}
		return o.KForkCoherent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPopBottomThenGetTokenMatchesGetToken: drawing first changes nothing.
// Over 10k attempts spread across merits of probability 0, 0.04, 0.5 and 1
// (plus unknown merits), "PopBottom, else GetToken" must grant the same
// tokens with the same ids, leave every tape at the same position and
// report the same Stats as calling GetToken on every attempt.
func TestPopBottomThenGetTokenMatchesGetToken(t *testing.T) {
	cfg := Config{Merits: []float64{0, 0.04, 0.5, 1}, Seed: 11}
	every, first := New(cfg), New(cfg)
	for i := 0; i < 10000; i++ {
		merit := i%6 - 1 // cycles -1..4: the four tapes and two unknown merits
		h, l := ObjectID(fmt.Sprintf("h%d", i)), ObjectID(fmt.Sprintf("l%d", i))
		want, wantOK := every.GetToken(merit, h, l)
		var got Token
		gotOK := false
		if !first.PopBottom(merit) {
			got, gotOK = first.GetToken(merit, h, l)
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("attempt %d (merit %d): drew %+v/%v, want %+v/%v", i, merit, got, gotOK, want, wantOK)
		}
	}
	if !slices.Equal(first.tapePos, every.tapePos) {
		t.Fatalf("tape positions %v, want %v", first.tapePos, every.tapePos)
	}
	if first.Stats() != every.Stats() {
		t.Fatalf("stats %+v, want %+v", first.Stats(), every.Stats())
	}
	if st := first.Stats(); st.Grants == 0 || st.Grants == st.GetCalls {
		t.Fatalf("%d grants in %d calls: the mix must contain both cells", st.Grants, st.GetCalls)
	}
}

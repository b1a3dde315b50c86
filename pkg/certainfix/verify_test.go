package certainfix_test

// VerifyFix at the public surface: every fix produced under WithAuth
// verifies offline against the published root with nothing but (rules,
// result, root); any single-cell tampering — of the fixed tuple, the
// witnessed master tuple, the proof, or the root — is rejected, and so is
// a proof in anything but its one canonical form; old
// results keep verifying against the root they were produced under
// after the master moves on; and provenance survives the session-token
// round trip while hostile tokens are rejected.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/authtree"
	"repro/internal/datagen"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/pkg/certainfix"
)

// paperTruth is the ground truth for paperex.InputT1 (Fig. 1's t1).
func paperTruth() certainfix.Tuple {
	return certainfix.StringTuple(
		"Robert", "Brady", "131", "079172485", "2",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
}

// cloneResult deep-copies the parts of a Result the tamper tests mutate.
func cloneResult(res certainfix.Result) certainfix.Result {
	out := res
	out.Tuple = res.Tuple.Clone()
	out.Provenance = make([]certainfix.Witness, len(res.Provenance))
	for i, w := range res.Provenance {
		out.Provenance[i] = w
		out.Provenance[i].Master = w.Master.Clone()
		if w.Proof != nil {
			out.Provenance[i].Proof = &certainfix.Proof{
				Key:      w.Proof.Key,
				Entries:  append([]authtree.Entry(nil), w.Proof.Entries...),
				Siblings: append([]authtree.Hash(nil), w.Proof.Siblings...),
			}
		}
	}
	return out
}

func authFix(t *testing.T, sys *certainfix.System, dirty certainfix.Tuple) certainfix.Result {
	t.Helper()
	res, err := sys.FixContext(context.Background(), dirty, certainfix.SimulatedUser{Truth: paperTruth()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyFixEndToEnd(t *testing.T) {
	sys := paperSystem(t, certainfix.WithAuth())
	root, ok := sys.MasterRoot()
	if !ok {
		t.Fatal("MasterRoot unavailable under Auth")
	}
	sigma := paperex.Sigma0()

	res := authFix(t, sys, paperex.InputT1())
	if !res.Completed {
		t.Fatal("fix did not complete")
	}
	if res.Root != root {
		t.Fatalf("result root %q, published root %q", res.Root, root)
	}
	if res.AutoFixed.Len() == 0 {
		t.Fatal("fix exercised no rules — nothing to verify")
	}
	if len(res.Provenance) != res.AutoFixed.Len() {
		t.Fatalf("%d witnesses for %d auto-fixed attributes", len(res.Provenance), res.AutoFixed.Len())
	}
	for _, w := range res.Provenance {
		if w.Proof == nil {
			t.Fatalf("witness for attribute %d carries no proof", w.Attr)
		}
	}
	if err := certainfix.VerifyFix(sigma, &res, root); err != nil {
		t.Fatalf("genuine fix rejected: %v", err)
	}

	// Single-cell tampering of any component must fail, and never panic.
	expectReject := func(t *testing.T, bad certainfix.Result, root string) {
		t.Helper()
		err := certainfix.VerifyFix(sigma, &bad, root)
		if err == nil {
			t.Fatal("tampered fix verified")
		}
		if !errors.Is(err, certainfix.ErrVerifyFailed) {
			t.Fatalf("rejection does not match ErrVerifyFailed: %v", err)
		}
	}
	t.Run("master-cell", func(t *testing.T) {
		bad := cloneResult(res)
		bad.Provenance[0].Master[0] = relation.String("evil")
		expectReject(t, bad, root)
	})
	t.Run("fixed-value", func(t *testing.T) {
		bad := cloneResult(res)
		bad.Tuple[bad.Provenance[0].Attr] = relation.String("evil")
		expectReject(t, bad, root)
	})
	t.Run("proof-entry", func(t *testing.T) {
		// A leaf claiming two copies of the witnessed master tuple.
		bad := cloneResult(res)
		w := &bad.Provenance[0]
		w.Proof.Entries = []authtree.Entry{{VHash: authtree.Sum(w.Master), Count: 2}}
		expectReject(t, bad, root)
	})
	t.Run("proof-leaf-spelled-out", func(t *testing.T) {
		// The elided leaf written out folds to the same root, but it is a
		// second spelling of the proof, and proofs have one.
		bad := cloneResult(res)
		w := &bad.Provenance[0]
		if w.Proof.Entries != nil {
			t.Fatalf("leaf of a master tuple held once is spelled out: %+v", w.Proof.Entries)
		}
		w.Proof.Entries = []authtree.Entry{{VHash: authtree.Sum(w.Master), Count: 1}}
		expectReject(t, bad, root)
	})
	t.Run("shared-proof-other-tuple", func(t *testing.T) {
		// Two witnesses share one proof pointer; the later one's master
		// tuple differs in a cell its rule does not read, so only the
		// inclusion proof can catch it — VerifyFix must not take the proof
		// as checked for it.
		bad := cloneResult(res)
		var first, second *certainfix.Witness
		for i := range bad.Provenance {
			for j := range bad.Provenance {
				a, b := &bad.Provenance[i], &bad.Provenance[j]
				if a.MasterID == b.MasterID && a.Attr < b.Attr {
					first, second = a, b
				}
			}
		}
		if first == nil {
			t.Fatal("no master tuple witnesses two attributes")
		}
		second.Proof = first.Proof
		var ru *rule.Rule
		for _, r := range sigma.Rules() {
			if r.Name() == second.Rule {
				ru = r
			}
		}
		read := append(slices.Clone(ru.LHSM()), ru.RHSM())
		for p := range second.Master {
			if !slices.Contains(read, p) {
				second.Master[p] = relation.String("evil")
				expectReject(t, bad, root)
				return
			}
		}
		t.Fatalf("rule %q reads every master attribute", ru.Name())
	})
	t.Run("proof-sibling", func(t *testing.T) {
		bad := cloneResult(res)
		if len(bad.Provenance[0].Proof.Siblings) == 0 {
			t.Skip("single-leaf tree has no siblings")
		}
		bad.Provenance[0].Proof.Siblings[0][0] ^= 1
		expectReject(t, bad, root)
	})
	t.Run("proof-dropped", func(t *testing.T) {
		bad := cloneResult(res)
		bad.Provenance[0].Proof = nil
		expectReject(t, bad, root)
	})
	t.Run("wrong-root", func(t *testing.T) {
		bad := cloneResult(res)
		flipped := []byte(root)
		if flipped[0] == '0' {
			flipped[0] = '1'
		} else {
			flipped[0] = '0'
		}
		expectReject(t, bad, string(flipped))
	})
	t.Run("witness-removed", func(t *testing.T) {
		bad := cloneResult(res)
		bad.Provenance = bad.Provenance[1:]
		expectReject(t, bad, root)
	})
	t.Run("witness-misattributed", func(t *testing.T) {
		bad := cloneResult(res)
		foreign := -1
		for _, p := range res.UserValidated.Positions() {
			if !res.AutoFixed.Has(p) {
				foreign = p
				break
			}
		}
		if foreign < 0 {
			t.Skip("every attribute is auto-fixed")
		}
		bad.Provenance[0].Attr = foreign
		expectReject(t, bad, root)
	})
	t.Run("duplicate-witness", func(t *testing.T) {
		bad := cloneResult(res)
		bad.Provenance = append(bad.Provenance, bad.Provenance[0])
		expectReject(t, bad, root)
	})
}

// TestVerifyFixProperty runs randomized corruptions of the ground truth
// through the full interactive fix and requires every produced result to
// verify against the published root.
func TestVerifyFixProperty(t *testing.T) {
	sys := paperSystem(t, certainfix.WithAuth())
	root, _ := sys.MasterRoot()
	sigma := paperex.Sigma0()
	truth := paperTruth()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		dirty := truth.Clone()
		for _, p := range rng.Perm(len(dirty))[:1+rng.Intn(len(dirty)-1)] {
			dirty[p] = relation.String(fmt.Sprintf("junk%d", rng.Intn(5)))
		}
		res := authFix(t, sys, dirty)
		if res.Root != root {
			t.Fatalf("trial %d: result root %q, published %q", trial, res.Root, root)
		}
		if err := certainfix.VerifyFix(sigma, &res, root); err != nil {
			t.Fatalf("trial %d (dirty %v): %v", trial, dirty, err)
		}
	}
}

// TestVerifyFixAcrossMasterUpdate pins the root-rotation semantics: a
// result verifies against the root it was produced under — no other.
func TestVerifyFixAcrossMasterUpdate(t *testing.T) {
	sys := paperSystem(t, certainfix.WithAuth())
	sigma := paperex.Sigma0()
	root1, _ := sys.MasterRoot()
	res1 := authFix(t, sys, paperex.InputT1())

	add := paperex.MasterRelation().Tuple(0).Clone()
	add[len(add)-1] = relation.String("XX")
	if _, err := sys.UpdateMaster([]certainfix.Tuple{add}, nil); err != nil {
		t.Fatal(err)
	}
	root2, ok := sys.MasterRoot()
	if !ok || root2 == root1 {
		t.Fatalf("master update did not rotate the root: %q → %q", root1, root2)
	}

	if err := certainfix.VerifyFix(sigma, &res1, root1); err != nil {
		t.Fatalf("old result no longer verifies against its own root: %v", err)
	}
	if err := certainfix.VerifyFix(sigma, &res1, root2); !errors.Is(err, certainfix.ErrVerifyFailed) {
		t.Fatalf("old result verified against the new root: %v", err)
	}

	res2 := authFix(t, sys, paperex.InputT1())
	if res2.Root != root2 {
		t.Fatalf("new result root %q, head root %q", res2.Root, root2)
	}
	if err := certainfix.VerifyFix(sigma, &res2, root2); err != nil {
		t.Fatalf("new result rejected: %v", err)
	}
}

// TestProvenanceSurvivesSessionToken suspends and resumes the session
// through its token after every round; the final result must carry
// full, verifiable provenance, also after its own JSON round trip.
// Tokens a client has edited must be rejected at Resume.
func TestProvenanceSurvivesSessionToken(t *testing.T) {
	sys := paperSystem(t, certainfix.WithAuth())
	truth := paperTruth()

	sess, err := sys.Begin(nil, paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	var token []byte
	for !sess.Done() {
		attrs := sess.Suggested()
		vals := make([]certainfix.Value, len(attrs))
		for i, p := range attrs {
			vals[i] = truth[p]
		}
		if token, err = sess.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if sess, err = sys.Resume(nil, token); err != nil {
			t.Fatal(err)
		}
		if err := sess.Provide(attrs, vals); err != nil {
			t.Fatal(err)
		}
	}
	res := sess.Result()
	if !res.Completed || res.AutoFixed.Len() == 0 {
		t.Fatalf("token-churned session: completed=%v autofixed=%v", res.Completed, res.AutoFixed.Positions())
	}
	root, _ := sys.MasterRoot()
	if err := certainfix.VerifyFix(paperex.Sigma0(), &res, root); err != nil {
		t.Fatalf("resumed session's provenance rejected: %v", err)
	}

	// The wire form ships each witnessed master tuple and its proof once;
	// decoding rehydrates every witness, and the decoded result verifies.
	wire, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, w := range res.Provenance {
		distinct[w.MasterID] = true
	}
	if got := bytes.Count(wire, []byte(`"proof"`)); got != len(distinct) || len(distinct) >= len(res.Provenance) {
		t.Fatalf("wire result carries %d proofs for %d distinct master tuples behind %d witnesses",
			got, len(distinct), len(res.Provenance))
	}
	var decoded certainfix.Result
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Provenance, res.Provenance) {
		t.Fatalf("provenance changed across the wire:\n got  %+v\n want %+v", decoded.Provenance, res.Provenance)
	}
	if err := certainfix.VerifyFix(paperex.Sigma0(), &decoded, root); err != nil {
		t.Fatalf("decoded result's provenance rejected: %v", err)
	}

	// A client cannot edit what the token asserts — an answer, say: any
	// changed byte fails the tag before a round is ever replayed. (That
	// the decoder behind the tag also range-checks every position is
	// internal/monitor's TestResumeSessionValidation.)
	if token, err = sess.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	for off := range token {
		hostile := append([]byte(nil), token...)
		hostile[off] ^= 0x10
		if _, err := sys.Resume(nil, hostile); !errors.Is(err, certainfix.ErrBadToken) {
			t.Fatalf("token with byte %d changed = %v, want ErrBadToken", off, err)
		}
	}
}

// TestVerifyFixWireTamper edits the JSON of an authenticated HOSP result —
// where witnessed master rows travel as cells of the fixed tuple and
// witnesses as [attr, "rule", m] triples — decodes it and verifies it:
// every edit of the certificate must fail with ErrVerifyFailed.
func TestVerifyFixWireTamper(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 1000, Tuples: 60, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := certainfix.New(ds.Sigma, ds.Master.Relation(), certainfix.WithAuth())
	if err != nil {
		t.Fatal(err)
	}
	root, _ := sys.MasterRoot()
	// The first fix whose table holds two rows, one of them as cells.
	var res certainfix.Result
	var wire map[string]any
	for i := range ds.Inputs {
		r, err := sys.FixContext(context.Background(), ds.Inputs[i], certainfix.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			t.Fatal(err)
		}
		w := decodeWire(t, r)
		masters, _ := w["Masters"].([]any)
		if len(masters) >= 2 && slices.ContainsFunc(masters, func(m any) bool { return m.(map[string]any)["values"] != nil }) {
			res, wire = r, w
			break
		}
	}
	if wire == nil {
		t.Fatal("no fix ships two master rows, one as cells of its tuple")
	}
	if err := certainfix.VerifyFix(ds.Sigma, &res, root); err != nil {
		t.Fatalf("genuine fix rejected: %v", err)
	}
	// Round-tripping the untouched wire form verifies too.
	if got := editWire(t, res, func(map[string]any) {}); !reflect.DeepEqual(got, res) {
		t.Fatalf("result changed across the wire:\n got  %+v\n want %+v", got, res)
	}
	masters := func(w map[string]any) []any { return w["Masters"].([]any) }
	delta := func(w map[string]any) map[string]any {
		for _, m := range masters(w) {
			if m := m.(map[string]any); m["values"] != nil {
				return m
			}
		}
		panic("no delta row")
	}
	expectReject := func(t *testing.T, bad certainfix.Result) {
		t.Helper()
		if err := certainfix.VerifyFix(ds.Sigma, &bad, root); !errors.Is(err, certainfix.ErrVerifyFailed) {
			t.Fatalf("tampered result: VerifyFix = %v, want ErrVerifyFailed", err)
		}
	}
	t.Run("delta-value", func(t *testing.T) {
		expectReject(t, editWire(t, res, func(w map[string]any) {
			delta(w)["values"].([]any)[0] = "evil"
		}))
	})
	t.Run("delta-cell-dropped", func(t *testing.T) {
		expectReject(t, editWire(t, res, func(w map[string]any) {
			m := delta(w)
			m["attrs"], m["values"] = m["attrs"].([]any)[1:], m["values"].([]any)[1:]
		}))
	})
	t.Run("witness-repointed", func(t *testing.T) {
		// A witness moved to a row that does not carry its fixed value.
		triples := wire["Provenance"].([]any)
		for i, tr := range triples {
			m, _ := tr.([]any)[2].(json.Number).Int64()
			for j := range masters(wire) {
				if int64(j) == m || rowOf(res, triples, j)[ruleRHSM(t, ds.Sigma, res.Provenance[i].Rule)].Equal(res.Tuple[res.Provenance[i].Attr]) {
					continue
				}
				expectReject(t, editWire(t, res, func(w map[string]any) {
					w["Provenance"].([]any)[i].([]any)[2] = j
				}))
				return
			}
		}
		t.Fatal("every row carries every witnessed value")
	})
	t.Run("proofs-swapped", func(t *testing.T) {
		expectReject(t, editWire(t, res, func(w map[string]any) {
			a, b := masters(w)[0].(map[string]any), masters(w)[1].(map[string]any)
			a["proof"], b["proof"] = b["proof"], a["proof"]
		}))
	})
}

// decodeWire is res's JSON form as generic maps, numbers kept exact.
func decodeWire(t *testing.T, res certainfix.Result) map[string]any {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var w map[string]any
	if err := dec.Decode(&w); err != nil {
		t.Fatal(err)
	}
	return w
}

// editWire applies edit to res's JSON form and decodes the result.
func editWire(t *testing.T, res certainfix.Result, edit func(map[string]any)) certainfix.Result {
	t.Helper()
	w := decodeWire(t, res)
	edit(w)
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var out certainfix.Result
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("edited result does not decode: %v\n%s", err, b)
	}
	return out
}

// rowOf is Masters[j]'s row: that of the first witness citing it.
func rowOf(res certainfix.Result, triples []any, j int) certainfix.Tuple {
	for i, tr := range triples {
		if m, _ := tr.([]any)[2].(json.Number).Int64(); m == int64(j) {
			return res.Provenance[i].Master
		}
	}
	panic("no witness cites the entry")
}

// ruleRHSM is the master position the named rule copies from.
func ruleRHSM(t *testing.T, rules *certainfix.Rules, name string) int {
	for _, r := range rules.Rules() {
		if r.Name() == name {
			return r.RHSM()
		}
	}
	t.Fatalf("no rule %q", name)
	return -1
}

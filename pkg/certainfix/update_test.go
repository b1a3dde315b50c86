package certainfix_test

import (
	"context"
	"strings"
	"testing"

	"repro/pkg/certainfix"
)

// updateFixture: an order/catalog system whose catalog initially lacks
// sku-2.
func updateFixture(t *testing.T) *certainfix.System {
	t.Helper()
	r := certainfix.StringSchema("order", "sku", "price", "desc")
	rm := certainfix.StringSchema("catalog", "sku", "price", "desc")
	rules, err := certainfix.ParseRules(r, rm, `
rule price: (sku ; sku) -> (price ; price)
rule desc:  (sku ; sku) -> (desc ; desc)
`)
	if err != nil {
		t.Fatal(err)
	}
	masterRel := certainfix.NewRelation(rm)
	if err := masterRel.Append(certainfix.StringTuple("sku-1", "9.99", "widget")); err != nil {
		t.Fatal(err)
	}
	sys, err := certainfix.New(rules, masterRel)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestUpdateMasterEndToEnd(t *testing.T) {
	sys := updateFixture(t)
	dirty := certainfix.StringTuple("sku-2", "0.00", "junk")

	// Before the update: the catalog cannot repair sku-2.
	fixed, _, changed, err := sys.RepairOnce(dirty, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 || !fixed.Equal(dirty) {
		t.Fatalf("repair against stale catalog changed %v", changed)
	}
	if sys.MasterEpoch() != 0 || sys.MasterLen() != 1 {
		t.Fatalf("fresh system: epoch %d |Dm| %d, want 0 and 1", sys.MasterEpoch(), sys.MasterLen())
	}

	// Publish the catalog correction.
	epoch, err := sys.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple("sku-2", "4.50", "gizmo")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || sys.MasterEpoch() != 1 || sys.MasterLen() != 2 {
		t.Fatalf("after update: epoch %d/%d |Dm| %d", epoch, sys.MasterEpoch(), sys.MasterLen())
	}

	// The same repair now cascades price and desc.
	fixed, z, changed, err := sys.RepairOnce(dirty, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 || z.Len() != 3 {
		t.Fatalf("repair after update: changed %v validated %v", changed, z.Positions())
	}
	if fixed[1].Str() != "4.50" || fixed[2].Str() != "gizmo" {
		t.Fatalf("repair after update produced %v", fixed)
	}

	// Deleting the seed tuple (swap-remove) keeps the system consistent.
	if _, err := sys.UpdateMaster(nil, []int{0}); err != nil {
		t.Fatal(err)
	}
	if sys.MasterLen() != 1 {
		t.Fatalf("|Dm| after delete = %d, want 1", sys.MasterLen())
	}
	fixed, _, changed, err = sys.RepairOnce(certainfix.StringTuple("sku-1", "x", "y"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("deleted sku-1 still repairs: %v -> %v", changed, fixed)
	}
}

func TestUpdateMasterValidation(t *testing.T) {
	sys := updateFixture(t)
	if _, err := sys.UpdateMaster(nil, []int{5}); err == nil {
		t.Fatal("out-of-range delete must error")
	}
	if _, err := sys.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple("just-sku")}, nil); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if sys.MasterEpoch() != 0 {
		t.Fatal("failed updates must not publish")
	}
}

// TestUpdateMasterSessionIsolation: a step-wise session started before an
// update completes on its pinned snapshot; a session started after sees
// the new catalog.
func TestUpdateMasterSessionIsolation(t *testing.T) {
	sys := updateFixture(t)
	dirty := certainfix.StringTuple("sku-2", "0.00", "junk")

	before, err := sys.Begin(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple("sku-2", "4.50", "gizmo")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := before.Provide([]int{0}, []certainfix.Value{certainfix.String("sku-2")}); err != nil {
		t.Fatal(err)
	}
	if got := before.Result().AutoFixed.Len(); got != 0 {
		t.Fatalf("pre-update session auto-fixed %d attrs off a snapshot it never pinned", got)
	}

	after, err := sys.Begin(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if err := after.Provide([]int{0}, []certainfix.Value{certainfix.String("sku-2")}); err != nil {
		t.Fatal(err)
	}
	res := after.Result()
	if res.AutoFixed.Len() != 2 || res.Tuple[2].Str() != "gizmo" {
		t.Fatalf("post-update session: autofixed=%v tuple=%v", res.AutoFixed.Positions(), res.Tuple)
	}
}

// TestUpdateMasterConcurrentWithBatch: repairs race master updates; every
// repair lands on one published epoch or the other, never between.
func TestUpdateMasterConcurrentWithBatch(t *testing.T) {
	sys := updateFixture(t)
	inputs := make([]certainfix.Tuple, 64)
	for i := range inputs {
		inputs[i] = certainfix.StringTuple("sku-2", "0.00", "junk")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := sys.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple("sku-2", "4.50", "gizmo")}, nil); err != nil {
			t.Errorf("concurrent update: %v", err)
		}
	}()
	repairs, err := sys.RepairBatchContext(context.Background(), inputs, []int{0}, 4)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range repairs {
		if rep.Err != nil {
			t.Fatalf("repair %d: %v", i, rep.Err)
		}
		switch len(rep.Fixed) {
		case 0: // ran on epoch 0
			if !rep.Tuple.Equal(inputs[i]) {
				t.Fatalf("repair %d fixed nothing but mutated the tuple: %v", i, rep.Tuple)
			}
		case 2: // ran on epoch 1
			if rep.Tuple[2].Str() != "gizmo" {
				t.Fatalf("repair %d fixed against a torn catalog: %v", i, rep.Tuple)
			}
		default:
			t.Fatalf("repair %d fixed %v — a partially applied delta leaked", i, rep.Fixed)
		}
	}
}

func TestMasterDeltaHelpersInDocs(t *testing.T) {
	// Guard the doc claim that UpdateMaster never blocks fixes: a fix in
	// flight while updates publish still completes with a coherent result.
	sys := updateFixture(t)
	truth := certainfix.StringTuple("sku-1", "9.99", "widget")
	res, err := sys.FixContext(context.Background(), certainfix.StringTuple("sku-1", "x", "y"), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !strings.EqualFold(res.Tuple[2].Str(), "widget") {
		t.Fatalf("fix result %+v", res)
	}
}

package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/rule"
)

// The HOSP dataset (§6): the join of the Hospital Compare tables HOSP,
// HOSP_MSR_XWLK and STATE_MSR_AVG, with the paper's 19 attributes. One
// master row is one (hospital, measure) pair carrying the hospital's
// identity and address, the measure's description, the hospital's score
// for the measure, and the state average for the measure.

// hospAttrs is the paper's 19-attribute schema, in the paper's order.
var hospAttrs = []string{
	"zip", "ST", "phn", "mCode", "mName", "sAvg", "hName", "hType",
	"hOwner", "provNum", "city", "emergency", "condition", "Score",
	"sample", "id", "addr1", "addr2", "addr3",
}

// HospSchema returns the input schema R for HOSP.
func HospSchema() *relation.Schema { return relation.StringSchema("hosp", hospAttrs...) }

// HospMasterSchema returns the master schema Rm for HOSP.
func HospMasterSchema() *relation.Schema {
	return relation.StringSchema("hosp_master", hospAttrs...)
}

// HospRulesDSL is the 21-rule set designed for HOSP in §6. The paper
// prints five representative rules (zip→ST, phn→zip, (mCode,ST)→sAvg,
// (id,mCode)→Score, id→hName); the remaining rules complete the same
// functional structure over the joined schema.
const HospRulesDSL = `
# Representative rules printed in the paper (ϕ1–ϕ5).
rule h01: (zip ; zip) -> (ST ; ST) when zip != nil
rule h02: (phn ; phn) -> (zip ; zip) when phn != nil
rule h03: (mCode, ST ; mCode, ST) -> (sAvg ; sAvg)
rule h04: (id, mCode ; id, mCode) -> (Score ; Score)
rule h05: (id ; id) -> (hName ; hName)
# Hospital-level attributes determined by the hospital id.
rule h06: (id ; id) -> (hType ; hType)
rule h07: (id ; id) -> (hOwner ; hOwner)
rule h08: (id ; id) -> (provNum ; provNum)
rule h09: (id ; id) -> (city ; city)
rule h10: (id ; id) -> (emergency ; emergency)
rule h11: (id ; id) -> (addr1 ; addr1)
rule h12: (id ; id) -> (addr2 ; addr2)
rule h13: (id ; id) -> (addr3 ; addr3)
rule h14: (id ; id) -> (phn ; phn)
rule h15: (id ; id) -> (zip ; zip)
# Measure-level attributes determined by the measure code, and back.
rule h16: (mCode ; mCode) -> (mName ; mName)
rule h17: (mCode ; mCode) -> (condition ; condition)
rule h18: (mName ; mName) -> (mCode ; mCode) when mName != nil
# Per-pair sample size, provider-number back-reference, zip-level city.
rule h19: (id, mCode ; id, mCode) -> (sample ; sample)
rule h20: (provNum ; provNum) -> (id ; id) when provNum != nil
rule h21: (zip ; zip) -> (city ; city) when zip != nil
`

// HospRules parses the HOSP rule set.
func HospRules() *rule.Set {
	s, err := rule.ParseRuleSet(HospSchema(), HospMasterSchema(), HospRulesDSL)
	if err != nil {
		panic("datagen: hosp rules: " + err.Error())
	}
	return s
}

// hospWorld holds the entity pools behind a HOSP master relation, so the
// dirty-data generator can fabricate consistent non-master truths.
type hospWorld struct {
	rng       *rand.Rand
	hospitals int
	measures  int
	perHosp   int
	freshHosp int // counter for hospitals outside the master
	freshMeas int
}

const (
	hospMeasures = 40
	hospPerHosp  = 10
)

var (
	hospTypes  = []string{"Acute Care", "Critical Access", "Childrens", "Psychiatric"}
	hospOwners = []string{"Government", "Proprietary", "Voluntary non-profit", "Physician", "Tribal"}
	conditions = []string{"Heart Attack", "Heart Failure", "Pneumonia", "Surgical Care", "Asthma", "Stroke", "Sepsis", "Emergency"}
)

// permPrime scrambles entity numbers into sparse identifier spaces:
// real-world identifiers (provider numbers, zips, phones) are far apart
// in edit distance, unlike sequential counters whose neighbours differ by
// one digit. perm is injective for x < permPrime.
const permPrime = 9999991

func perm(x, mult int) int { return (x*mult + 7) % permPrime }

// hospital-level deterministic fields. Hospitals are identified by an
// integer; everything hangs off it so the master FDs hold by
// construction (master data is consistent, §2).
func (w *hospWorld) hospitalFields(h int) map[string]string {
	state := fmt.Sprintf("S%02d", h%50)
	return map[string]string{
		"id":        fmt.Sprintf("H%07d", perm(h, 48271)),
		"provNum":   fmt.Sprintf("P%07d", perm(h, 16807)),
		"hName":     fmt.Sprintf("General Hospital %d", h),
		"hType":     hospTypes[h%len(hospTypes)],
		"hOwner":    hospOwners[h%len(hospOwners)],
		"zip":       fmt.Sprintf("Z%07d", perm(h, 69621)),
		"city":      fmt.Sprintf("City of %d", h), // city = f(zip): zip is f(h)
		"ST":        state,
		"phn":       fmt.Sprintf("555%07d", perm(h, 39373)),
		"emergency": []string{"Yes", "No"}[h%2],
		"addr1":     fmt.Sprintf("%d Main Street", 100+h%900),
		"addr2":     fmt.Sprintf("Building %d", h%9),
		"addr3":     fmt.Sprintf("County %d", h%97),
	}
}

func (w *hospWorld) measureFields(m int) map[string]string {
	code := (m*2971 + 7) % 9973 // sparse 4-digit measure codes
	return map[string]string{
		"mCode":     fmt.Sprintf("MX-%04d", code),
		"mName":     fmt.Sprintf("Measure %04d: timely care", code),
		"condition": conditions[m%len(conditions)],
	}
}

// pairFields are the per-(hospital, measure) fields; sAvg is functional
// in (mCode, ST).
func (w *hospWorld) pairFields(h, m int) map[string]string {
	state := h % 50
	return map[string]string{
		"Score":  fmt.Sprintf("%d%%", 35+(h*7+m*13)%60),
		"sample": fmt.Sprintf("%d patients", 20+(h*11+m*3)%400),
		"sAvg":   fmt.Sprintf("%d.%d%%", 40+(m*17+state*5)%55, (m+state)%10),
	}
}

// row assembles a full 19-attribute tuple for (hospital h, measure m).
func (w *hospWorld) row(schema *relation.Schema, h, m int) relation.Tuple {
	fields := w.hospitalFields(h)
	for k, v := range w.measureFields(m) {
		fields[k] = v
	}
	for k, v := range w.pairFields(h, m) {
		fields[k] = v
	}
	t := make(relation.Tuple, schema.Arity())
	for i, name := range hospAttrs {
		t[i] = relation.String(fields[name])
	}
	return t
}

// masterPair maps master row index k to its (hospital, measure) pair:
// hospitals carry hospPerHosp consecutive measures each, offset by the
// hospital index so measures spread across the pool.
func (w *hospWorld) masterPair(k int) (h, m int) {
	h = k / w.perHosp
	m = (h + k%w.perHosp*3) % w.measures
	return h, m
}

// newHospWorld sizes the pools for the requested master cardinality.
func newHospWorld(rng *rand.Rand, masterSize int) *hospWorld {
	hospitals := (masterSize + hospPerHosp - 1) / hospPerHosp
	if hospitals == 0 {
		hospitals = 1
	}
	return &hospWorld{
		rng:       rng,
		hospitals: hospitals,
		measures:  hospMeasures,
		perHosp:   hospPerHosp,
	}
}

package query

import (
	"reflect"
	"strings"
	"testing"

	"sketchprivacy/internal/sketch"
)

// TestEstimatorSurface keeps an estimator spelled once.  Every exported
// planner PlanX has exactly one entry point X(src PartialSource, …);
// MatchDistribution (three results, no exported planner) is the only other
// method that takes a source; nothing is suffixed From; and a *sketch.Table
// is taken only by the adapter, the executor and Appendix E's
// SumLessThanPow2, which joins per-user bits no mergeable counter carries.
func TestEstimatorSurface(t *testing.T) {
	typ := reflect.TypeOf(&Estimator{})
	source := reflect.TypeOf((*PartialSource)(nil)).Elem()
	table := reflect.TypeOf(&sketch.Table{})
	takesTable := map[string]bool{"TableSource": true, "ExecutePlanOver": true, "ExecutePlanOverCtx": true, "SumLessThanPow2": true}

	takesSource := make(map[string]bool)
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if strings.HasSuffix(m.Name, "From") {
			t.Errorf("%s: the From suffix distinguishes an estimator from nothing — name it %s", m.Name, strings.TrimSuffix(m.Name, "From"))
		}
		hasTable := false
		for a := 1; a < m.Type.NumIn(); a++ { // In(0) is the receiver
			switch m.Type.In(a) {
			case source:
				if a != 1 {
					t.Errorf("%s takes its PartialSource as argument %d, want first", m.Name, a)
				}
				takesSource[m.Name] = true
			case table:
				hasTable = true
			}
		}
		if hasTable != takesTable[m.Name] {
			t.Errorf("%s: takes a *sketch.Table = %v, want %v (ask over TableSource(tab))", m.Name, hasTable, takesTable[m.Name])
		}
	}
	for i := 0; i < typ.NumMethod(); i++ {
		name, ok := strings.CutPrefix(typ.Method(i).Name, "Plan")
		if !ok {
			continue
		}
		if !takesSource[name] {
			t.Errorf("Plan%s has no entry point %s(src PartialSource, …)", name, name)
		}
		delete(takesSource, name)
	}
	delete(takesSource, "MatchDistribution")
	for name := range takesSource {
		t.Errorf("%s takes a PartialSource but has no exported planner Plan%s", name, name)
	}
	if n := typ.NumMethod(); n > 37 {
		t.Errorf("Estimator has %d exported methods, want ≤ 37", n)
	}
}

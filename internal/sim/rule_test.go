package sim

import (
	"fmt"
	"testing"
)

// TestRuleDeterministicDraws pins the draw contract of Definition 3.1's
// rules: for each rule with w1 = w2 and with w1 ≠ w2, Next returns the
// paper's opinion and consumes exactly the draws the engines' streams
// expect — w3 only for 3-Majority with w1 ≠ w2.
func TestRuleDeterministicDraws(t *testing.T) {
	const own = 9
	cases := []struct {
		name  string
		rule  Rule
		draws []int32
		want  int32
		used  int
	}{
		{"3-majority/w1=w2", ThreeMajority, []int32{4, 4, 7}, 4, 2},
		{"3-majority/w1!=w2", ThreeMajority, []int32{4, 5, 7}, 7, 3},
		{"2-choices/w1=w2", TwoChoices, []int32{4, 4, 7}, 4, 2},
		{"2-choices/w1!=w2", TwoChoices, []int32{4, 5, 7}, own, 2},
		{"voter/w1=w2", Voter, []int32{4, 4, 7}, 4, 1},
		{"voter/w1!=w2", Voter, []int32{4, 5, 7}, 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			used := 0
			got := tc.rule.Next(own, func() int32 {
				used++
				return tc.draws[used-1]
			})
			if got != tc.want || used != tc.used {
				t.Fatalf("Next = %d after %d draws, want %d after %d", got, used, tc.want, tc.used)
			}
			if s := tc.rule.Samples(); s < used {
				t.Fatalf("Samples() = %d < %d draws", s, used)
			}
		})
	}
}

// TestRuleByName: the lookup resolves exactly the three rules, each
// with its pull count, and rejects every other protocol name.
func TestRuleByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rule    Rule
		samples int
	}{{"3-majority", ThreeMajority, 3}, {"2-choices", TwoChoices, 2}, {"voter", Voter, 1}} {
		rule, ok := RuleByName(tc.name)
		if !ok || rule != tc.rule || rule.Samples() != tc.samples {
			t.Errorf("RuleByName(%q) = %d, %v with %d samples", tc.name, rule, ok, rule.Samples())
		}
	}
	for _, name := range []string{"median", "undecided", "h3-majority", "3-Majority", ""} {
		if rule, ok := RuleByName(name); ok || rule != 0 {
			t.Errorf("RuleByName(%q) = %d, %v, want rejected", name, rule, ok)
		}
	}
	if got, want := RuleNames(), "3-majority, 2-choices and voter"; got != want {
		t.Errorf("RuleNames() = %q, want %q", got, want)
	}
}

// TestRuleUnknown: the zero and an out-of-range rule need no samples
// and panic in Next before drawing.
func TestRuleUnknown(t *testing.T) {
	for _, rule := range []Rule{0, Voter + 1} {
		t.Run(fmt.Sprint(int(rule)), func(t *testing.T) {
			if rule.Samples() != 0 {
				t.Fatalf("Samples() = %d", rule.Samples())
			}
			drew := false
			defer func() {
				if recover() == nil || drew {
					t.Fatalf("Next did not panic before drawing (drew %v)", drew)
				}
			}()
			rule.Next(0, func() int32 { drew = true; return 0 })
		})
	}
}

package experiments

import "testing"

func TestLemma1Quick(t *testing.T) {
	rep := quickReport(t, "lemma1")
	for _, n := range rep.Notes {
		t.Log(n)
	}
	if !hasNote(rep, "cannot distinguish the strategies before τᵏ: REPRODUCED") {
		t.Errorf("indistinguishability not reproduced; notes: %v", rep.Notes)
		for _, tbl := range rep.Tables {
			for _, row := range tbl.Rows {
				t.Log(row)
			}
		}
	}
}

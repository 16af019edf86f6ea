package simtest

import (
	"fmt"
	"regexp"
	"strings"
)

// Outcomes written by builds that still had Outcome.PerProcessMsgs and
// Stats.Intervals carry two keys today's Outcome lacks. Journals, result
// caches and worker posts written by such builds must keep loading, so
// the store and API tests feed them through these rewrites.

var (
	legacyStats = regexp.MustCompile(`("Cancelled":(?:true|false)),("Stats":\{)`)
	legacyWall  = regexp.MustCompile(`,("Wall":\{)`)
)

// LegacyOutcomeNull rewrites every outcome encoded in s the way an older
// build wrote a run without per-process counters or an interval series.
func LegacyOutcomeNull(s string) string { return legacyOutcome(s, "null", "null") }

// LegacyOutcomePopulated rewrites every outcome encoded in s the way an
// older build wrote a run with both: three per-process counts and one
// interval window holding a 48-bucket delay histogram.
func LegacyOutcomePopulated(s string) string {
	hist := "[5" + strings.Repeat(",0", 47) + "]"
	window := `[{"Start":0,"End":8,"Sends":5,"Deliveries":5,"Sleeps":1,"Wakes":0,"Crashes":0,` +
		`"AwakeCorrect":2,"InFlight":0,"DelayHist":` + hist + `}]`
	return legacyOutcome(s, "[3,1,4]", window)
}

func legacyOutcome(s, perProcess, intervals string) string {
	n := len(legacyStats.FindAllStringIndex(s, -1))
	if n == 0 || n != len(legacyWall.FindAllStringIndex(s, -1)) {
		panic(fmt.Sprintf("simtest: no outcome encoding to rewrite in %.200s", s))
	}
	s = legacyStats.ReplaceAllString(s, `$1,"PerProcessMsgs":`+perProcess+`,$2`)
	return legacyWall.ReplaceAllString(s, `,"Intervals":`+intervals+`,$1`)
}

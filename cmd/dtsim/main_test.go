package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"dtmsvs"
)

// TestWriteBufferedPinned pins the bytes of the -format json array:
// the empty run writes [] (a nil slice would encode as null, which
// ReadTraceRecords does not detect as JSON), monolithic records carry
// no "bs" field and cluster records lead with it. Every non-empty
// output must read back to the records it was written from.
func TestWriteBufferedPinned(t *testing.T) {
	a := dtmsvs.GroupIntervalRecord{Interval: 0, GroupID: 1, Size: 12, PredictedRBs: 2.5, ActualRBs: 2.75,
		AllocatedRBs: 3, PredictedCycles: 2e9, ActualCycles: 1.9e9, PredictedBits: 6e8, ActualBits: 6.1e8,
		PredictedWasteBits: 1e6, ActualWasteBits: 0.5e6, ActualEngagementS: 41.25, WorstSNRdB: 8.5, BitrateBps: 1.85e6}
	b := dtmsvs.GroupIntervalRecord{Interval: 1, GroupID: 0, Size: 7, PredictedRBs: 1.0 / 3, ActualRBs: 1.25,
		PredictedBits: 3e8, ActualBits: 3.1e8, ActualEngagementS: 7, WorstSNRdB: -2.125, BitrateBps: 2.5e6}
	for _, tc := range []struct {
		name    string
		records []dtmsvs.TraceRecord
		sha256  string
	}{
		{"empty", nil,
			"37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"},
		{"mono", []dtmsvs.TraceRecord{{BS: -1, GroupIntervalRecord: a}, {BS: -1, GroupIntervalRecord: b}},
			"69c3ae415c936956480d831861cd4efedf3a6932363285e8de39032029f6d534"},
		{"cluster", []dtmsvs.TraceRecord{{BS: 0, GroupIntervalRecord: a}, {BS: 3, GroupIntervalRecord: b}},
			"42c99867ab7fee123d35c2f05f145f365ba4ccac5a095a2f3550140de2a79a1e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeBuffered(&buf, &dtmsvs.BufferedSink{Records: tc.records}); err != nil {
				t.Fatal(err)
			}
			if tc.records == nil && buf.String() != "[]\n" {
				t.Fatalf("empty run wrote %q, want %q", buf.String(), "[]\n")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
				t.Fatalf("json trace digest\n got %s\nwant %s\n%s", got, tc.sha256, buf.String())
			}
			back, err := dtmsvs.ReadTraceRecords(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(tc.records) || (len(back) > 0 && !reflect.DeepEqual(back, tc.records)) {
				t.Fatalf("read back %+v, want %+v", back, tc.records)
			}
		})
	}
}

package server

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// Fuzz input layout: the first byte is a mode, the rest is the request
// body. Mode bit 0 picks CSV over NDJSON; bit 1 makes the body's reader
// fail with a transport error once the body is exhausted, instead of
// ending cleanly.
const (
	fuzzCSV  = 1
	fuzzFail = 2
)

// FuzzDecode feeds arbitrary bodies through the shared ingest decoder both
// fronts use, and checks the contract clients resume by: the decoder never
// panics, handles lines in strictly increasing order, and reports an
// unreadable body only as a *ReadError at a line past every line it has
// already handed to emit or reject. An NDJSON body must also emit and
// reject the lines decodeNDJSONOracle does, with deep-equal events, except
// that a null line is rejected.
func FuzzDecode(f *testing.F) {
	for _, line := range decodeEdgeCases {
		f.Add(append([]byte{0}, line+"\n"+`{"job_id":{"a":[1]},"color":"red"}`+"\n"...))
	}
	csvBools := "color,multi_task\nred,true\nblue,TRUE\ngreen,yes\nred,\n"
	for _, seed := range []struct {
		mode byte
		body string
	}{
		// The over-long NDJSON line: two good lines, then one past the
		// scanner bound.
		{0, `{"color":"red"}` + "\n" + `{"color":"blue"}` + "\n" +
			`{"pad":"` + strings.Repeat("x", maxLineBytes+1) + `"}` + "\n" + `{"color":"green"}` + "\n"},
		{0, `{"color":"red"}` + "\n\n" + `{not json` + "\n" + `{"util":7.5}`},
		// CSV bool columns, accepted, rejected and empty.
		{fuzzCSV, csvBools},
		{fuzzCSV, fmt.Sprintf("color,multi_task,util\nred,%q,x\n\"open,1,2\n", " true")},
		// The CSV reader that dies after its payload.
		{fuzzCSV | fuzzFail, "color\nred\nblue\n"},
		{fuzzFail, `{"color":"red"}` + "\n"},
		{fuzzCSV, ""},
	} {
		f.Add(append([]byte{seed.mode}, seed.body...))
	}
	dec := NewDecoder(Spec{
		Numeric: []NumericSpec{{Field: "util"}},
		Bools:   []string{"multi_task"},
	})
	boom := errors.New("connection reset")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, body := data[0], string(data[1:])
		contentType := "application/x-ndjson"
		if mode&fuzzCSV != 0 {
			contentType = "text/csv"
		}
		var r io.Reader = strings.NewReader(body)
		if mode&fuzzFail != 0 {
			r = &failingReader{data: r, err: boom}
		}
		last := 0
		handled := func(kind string, line int) {
			if line <= last {
				t.Fatalf("%s line %d after line %d", kind, line, last)
			}
			last = line
		}
		stopped, err := dec.Decode(contentType, r,
			func(line int, _ Event) bool { handled("emit", line); return true },
			func(line int, _ error) { handled("reject", line) })
		if stopped {
			t.Fatal("stopped although emit never asked to stop")
		}
		if mode&fuzzCSV == 0 {
			checkAgainstOracle(t, body)
		}
		if err == nil {
			if mode&fuzzFail != 0 {
				t.Fatal("a failing reader decoded cleanly")
			}
			return
		}
		var re *ReadError
		if !errors.As(err, &re) {
			t.Fatalf("error %v is not a *ReadError", err)
		}
		if re.Line <= last {
			t.Fatalf("ReadError at line %d, but line %d was already handled", re.Line, last)
		}
	})
}

package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/server"
	"repro/internal/trace"
)

// tenantField is the event field the sharded workload routes on.
const tenantField = "user"

// traffic is one seed's generated PAI trace, pre-rendered in both ingest
// formats so the load phase only concatenates bytes.
type traffic struct {
	events    []server.Event
	ndjson    [][]byte // one line per event, newline included
	csvHeader []byte
	csvRows   [][]byte
	csv       bool
}

// genEvents generates jobs PAI jobs (scheduler ⋈ node) as server events.
// num_tasks is dropped: cmd/serve's default -skip list does not cover it and
// the PAI spec does not bin it, so the server would reject every NDJSON
// event that carries it.
func genEvents(jobs int, seed int64) ([]server.Event, error) {
	tr, err := trace.GeneratePAI(trace.Config{Jobs: jobs, Seed: seed})
	if err != nil {
		return nil, err
	}
	joined, err := tr.Join()
	if err != nil {
		return nil, err
	}
	events := server.FrameEvents(joined)
	for _, ev := range events {
		delete(ev, "num_tasks")
	}
	return events, nil
}

// render pre-renders events in the workload's ingest format.
func render(events []server.Event, asCSV bool) (*traffic, error) {
	t := &traffic{events: events, csv: asCSV}
	fieldSet := map[string]bool{}
	for _, ev := range t.events {
		for f := range ev {
			fieldSet[f] = true
		}
	}
	if !asCSV {
		t.ndjson = make([][]byte, len(t.events))
		for i, ev := range t.events {
			line, err := json.Marshal(ev)
			if err != nil {
				return nil, err
			}
			t.ndjson[i] = append(line, '\n')
		}
		return t, nil
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	t.csvHeader = csvLine(fields)
	t.csvRows = make([][]byte, len(t.events))
	rec := make([]string, len(fields))
	for i, ev := range t.events {
		for j, f := range fields {
			switch v := ev[f].(type) {
			case nil:
				rec[j] = ""
			case string:
				rec[j] = v
			case float64:
				// Shortest round-trip form: the server parses back the exact
				// float the NDJSON path would carry.
				rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
			case bool:
				rec[j] = strconv.FormatBool(v)
			default:
				return nil, fmt.Errorf("field %q: unexpected %T", f, v)
			}
		}
		t.csvRows[i] = csvLine(rec)
	}
	return t, nil
}

func csvLine(rec []string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.Write(rec)
	w.Flush()
	return b.Bytes()
}

// body renders events [lo, hi) as one request body.
func (t *traffic) body(lo, hi int) []byte {
	var b bytes.Buffer
	if t.csv {
		b.Write(t.csvHeader)
		for _, r := range t.csvRows[lo:hi] {
			b.Write(r)
		}
		return b.Bytes()
	}
	for _, l := range t.ndjson[lo:hi] {
		b.Write(l)
	}
	return b.Bytes()
}

func (t *traffic) contentType() string {
	if t.csv {
		return "text/csv"
	}
	return "application/x-ndjson"
}

// shardOf mirrors shard.Cluster.ShardFor: FNV-1a of the tenant key modulo
// the shard count. PAI events always carry a non-empty user.
func shardOf(ev server.Event, shards int) int {
	h := fnv.New32a()
	tenant, _ := ev[tenantField].(string)
	_, _ = h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(shards))
}

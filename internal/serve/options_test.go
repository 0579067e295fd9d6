package serve

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/shard"
)

// crossing says how one fault.Options field reaches a grader behind a
// transport: the wire request field that carries it, or why it needs
// none.
type crossing struct {
	field string // field of the transport's request type
	local string // reason the field does not travel
}

// TestOptionsCrossEveryTransport walks fault.Options and requires every
// field to name how it crosses shard.Request (GradeDist, -hosts and
// -shards) and serve.Request (sbstd, -server), or why it stays local. A
// new Options field with no entry fails here, before a remote grade can
// silently ignore it.
func TestOptionsCrossEveryTransport(t *testing.T) {
	table := map[string]struct{ shard, serve crossing }{
		"Workers": {
			shard: crossing{field: "Workers"},
			serve: crossing{local: "the server's warm pool sets grading parallelism"},
		},
		"LaneWords": {
			shard: crossing{field: "LaneWords"},
			serve: crossing{field: "LaneWords"},
		},
		"Sample": {
			shard: crossing{local: "GradeDist samples before it partitions"},
			serve: crossing{field: "Sample"},
		},
		"Seed": {
			shard: crossing{local: "GradeDist samples before it partitions"},
			serve: crossing{field: "Seed"},
		},
		"Engine": {
			shard: crossing{field: "Engine"},
			serve: crossing{local: "Client.Grade rejects an engine that differs from the server's"},
		},
		"CollectInto": {
			shard: crossing{local: "a caller pointer; the caller folds Result.Stats into it"},
			serve: crossing{local: "a caller pointer; Client.Grade folds the response stats into it"},
		},
	}
	opts := reflect.TypeOf(fault.Options{})
	wires := map[string]reflect.Type{
		"shard.Request": reflect.TypeOf(shard.Request{}),
		"serve.Request": reflect.TypeOf(Request{}),
	}
	for i := 0; i < opts.NumField(); i++ {
		name := opts.Field(i).Name
		entry, ok := table[name]
		if !ok {
			t.Errorf("fault.Options.%s has no entry: say how it crosses shard.Request and serve.Request, or why it is local", name)
			continue
		}
		for wire, c := range map[string]crossing{"shard.Request": entry.shard, "serve.Request": entry.serve} {
			switch {
			case (c.field == "") == (c.local == ""):
				t.Errorf("fault.Options.%s over %s: name exactly one of a wire field or a local reason", name, wire)
			case c.field != "":
				f, ok := wires[wire].FieldByName(c.field)
				if !ok {
					t.Errorf("fault.Options.%s: %s has no field %s", name, wire, c.field)
				} else if f.Type != opts.Field(i).Type {
					t.Errorf("fault.Options.%s is %v, but %s.%s is %v", name, opts.Field(i).Type, wire, c.field, f.Type)
				}
			}
		}
		delete(table, name)
	}
	for name := range table {
		t.Errorf("entry %s names no fault.Options field", name)
	}
}

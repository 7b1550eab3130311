package history

import (
	"encoding/json"
	"fmt"
)

// Dump serializes a history to its canonical JSON form: one top-level
// object with the schema tag and the events array, one event per line.
// Struct field order is fixed and map-free, so the same history always
// produces byte-identical output — the determinism contract chaos replay
// relies on (two runs of one seed must dump identically).
func Dump(h *History) []byte {
	var buf []byte
	buf = append(buf, `{"schema":`...)
	buf = appendJSON(buf, h.Schema)
	buf = append(buf, `,"events":[`...)
	for i, ev := range h.Events {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		buf = appendJSON(buf, ev)
	}
	buf = append(buf, "\n]}\n"...)
	return buf
}

func appendJSON(buf []byte, v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only fixed struct types reach Marshal; they cannot fail.
		panic(fmt.Sprintf("history: marshal: %v", err))
	}
	return append(buf, b...)
}

// Load parses a dump produced by Dump.
func Load(data []byte) (*History, error) {
	var h History
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("history: parse dump: %w", err)
	}
	if h.Schema != Schema {
		return nil, fmt.Errorf("history: unknown schema %q (want %q)", h.Schema, Schema)
	}
	for i, ev := range h.Events {
		if ev == nil {
			return nil, fmt.Errorf("history: event %d is null", i)
		}
	}
	return &h, nil
}

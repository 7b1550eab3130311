package history

import "testing"

// FuzzLoad feeds arbitrary bytes to the dump loader farm-histcheck uses:
// Load followed by Check must return an error or a report, never panic.
func FuzzLoad(f *testing.F) {
	r := NewRecorder()
	t1 := r.Open(0, 3, 100)
	t1.Write(keyA, 0, []byte{1, 2, 3}, true, false)
	t1.Finish(250, Committed)
	t2 := r.Open(1, 0, 300)
	t2.Read(keyA, 1)
	t2.Write(keyA, 1, []byte{9}, false, false)
	t2.Finish(400, Committed)
	r.Open(2, 1, 500).Read(keyA, 2) // never finished: indeterminate
	f.Add(Dump(r.Export()))
	f.Add([]byte(`{"schema":"farm/history/v1","events":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Load(data)
		if err != nil {
			return
		}
		Check(h)
	})
}

func TestLoadRejectsNullEvent(t *testing.T) {
	_, err := Load([]byte(`{"schema":"farm/history/v1","events":[{"id":1},null]}`))
	if err == nil || err.Error() != "history: event 1 is null" {
		t.Fatalf("null event: got %v, want the error naming index 1", err)
	}
}

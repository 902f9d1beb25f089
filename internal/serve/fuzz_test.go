package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequest drives the POST /jobs decoding path — JSON decode,
// Normalize, Validate — with hostile bodies. It must never panic;
// Normalize must be idempotent (it runs again server-side after the
// client's JSON roundtrip); and an accepted request must re-encode and
// decode to identical bytes, so what the spool stores is what the server
// accepted.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(`{"ID":"a-refine-1","Kind":"refine","Design":{"Name":"d"},"Seed":7,"Epochs":4,"Iters":3,"AugmentVariants":-1,"Workers":2}`))
	f.Add([]byte(`{"ID":"s","Kind":"signoff","Design":{},"Corners":[{"Name":"slow","DelayScale":1.2,"SlewScale":1.1,"ClockScale":1}]}`))
	f.Add([]byte(`{"ID":"..","Kind":"train","Design":null,"Shards":-3,"Lanes":-1,"DeadlineMS":-5}`))
	f.Add([]byte(`{"ID":"x","Kind":"refine","Design":{},"DesignFile":"/tmp/d.json"}`))
	f.Add([]byte(`{"ID":"x","Kind":"refine","Design":"<&>","Shards":4097}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req := new(JobRequest)
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(req); err != nil {
			return
		}
		req.Normalize()
		once := mustMarshal(t, req)
		req.Normalize()
		if twice := mustMarshal(t, req); !bytes.Equal(once, twice) {
			t.Fatalf("Normalize not idempotent:\n%s\n%s", once, twice)
		}
		if err := req.Validate(); err != nil {
			return
		}
		back := new(JobRequest)
		if err := json.Unmarshal(once, back); err != nil {
			t.Fatalf("accepted request does not decode after encoding: %v\n%s", err, once)
		}
		back.Normalize()
		if err := back.Validate(); err != nil {
			t.Fatalf("accepted request rejected after a roundtrip: %v\n%s", err, once)
		}
		if again := mustMarshal(t, back); !bytes.Equal(once, again) {
			t.Fatalf("roundtrip changed the request bytes:\n%s\n%s", once, again)
		}
	})
}

func mustMarshal(t *testing.T, r *JobRequest) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal decoded request: %v", err)
	}
	return b
}

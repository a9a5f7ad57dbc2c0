package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// specIdentity returns the spec's CacheKey and its built profile's
// ConfigHash: the run identity and the ledger key of its cells.
func specIdentity(t *testing.T, s CampaignSpec) (key, hash string) {
	t.Helper()
	key, err := s.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := s.BuildProfile()
	if err != nil {
		t.Fatalf("valid spec %+v does not build: %v", s, err)
	}
	hash, err = prof.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	return key, hash
}

// FuzzCampaignSpec decodes arbitrary bytes the way coolpim-serve does
// and, for every spec that passes Validate, checks the identity round
// trip: CanonicalJSON parses back to a valid spec and is a fixed point,
// the CacheKey and profile ConfigHash survive that round trip, and a
// spec shares both with its ResultSpec, so execution knobs and shards
// never split a campaign or its ledger cells.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{"profile":"test","workloads":["dc"],"policies":["baseline"],"parallel":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		canon, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back CampaignSpec
		if err := json.Unmarshal(canon, &back); err != nil {
			t.Fatalf("canonical JSON %s does not parse: %v", canon, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("canonical JSON %s is invalid: %v", canon, err)
		}
		if again, err := back.CanonicalJSON(); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical JSON is not a fixed point:\n  %s\n  %s (%v)", canon, again, err)
		}
		key, hash := specIdentity(t, spec)
		if k, h := specIdentity(t, back); k != key || h != hash {
			t.Fatalf("round trip moved the identity: key %s -> %s, hash %s -> %s", key, k, hash, h)
		}
		if k, h := specIdentity(t, spec.ResultSpec()); k != key || h != hash {
			t.Fatalf("ResultSpec moved the identity: key %s -> %s, hash %s -> %s", key, k, hash, h)
		}
	})
}

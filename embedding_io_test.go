package gebe

import (
	"errors"
	"strings"
	"testing"
)

// TestReadEmbeddingHardening exercises the strict-parse paths the
// serving layer depends on: a malformed file must fail at load, never
// produce an embedding that scores wrong (NaN/Inf), silently drops
// rows (truncation), or lets a later duplicate overwrite an earlier
// row. Each case names the defect and the fragment of the error that
// must identify it.
func TestReadEmbeddingHardening(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{
			name:    "NaN value",
			in:      "#gebe m 1 1 2\nu 0 NaN 1\nv 0 1 2\n",
			wantErr: "non-finite",
		},
		{
			name:    "positive Inf value",
			in:      "#gebe m 1 1 2\nu 0 +Inf 1\nv 0 1 2\n",
			wantErr: "non-finite",
		},
		{
			name:    "negative Inf value",
			in:      "#gebe m 1 1 2\nu 0 1 2\nv 0 -Inf 2\n",
			wantErr: "non-finite",
		},
		{
			name:    "duplicate u row",
			in:      "#gebe m 2 1 2\nu 0 1 2\nu 0 3 4\nu 1 5 6\nv 0 7 8\n",
			wantErr: "duplicate u row 0",
		},
		{
			name:    "duplicate v row",
			in:      "#gebe m 1 2 2\nu 0 1 2\nv 1 3 4\nv 1 5 6\nv 0 7 8\n",
			wantErr: "duplicate v row 1",
		},
		{
			name:    "truncated u side",
			in:      "#gebe m 3 1 2\nu 0 1 2\nu 1 3 4\nv 0 5 6\n",
			wantErr: "truncated embedding: 2 of 3 u rows",
		},
		{
			name:    "truncated v side (stream cut mid-file)",
			in:      "#gebe m 1 4 2\nu 0 1 2\nv 0 1 2\nv 1 3 4\n",
			wantErr: "truncated embedding: 2 of 4 v rows",
		},
		{
			name:    "rows only from header",
			in:      "#gebe m 1 1 2\n",
			wantErr: "truncated",
		},
		{
			name:    "short row",
			in:      "#gebe m 1 1 2\nu 0 1\nv 0 1 2\n",
			wantErr: "want 4 fields",
		},
		{
			name:    "overlong row",
			in:      "#gebe m 1 1 2\nu 0 1 2 3\nv 0 1 2\n",
			wantErr: "want 4 fields",
		},
		{
			name:    "header dimension overflow",
			in:      "#gebe m 4611686018427387904 1 4\n",
			wantErr: "too large",
		},
		{
			name:    "non-finite sigma_scale meta",
			in:      "#gebe m 1 1 2\n#meta sigma_scale NaN\nu 0 1 2\nv 0 1 2\n",
			wantErr: "bad #meta sigma_scale",
		},
		{
			name:    "non-finite values meta",
			in:      "#gebe m 1 1 2\n#meta values 1 +Inf\nu 0 1 2\nv 0 1 2\n",
			wantErr: "bad #meta values",
		},
		{
			name:    "shard meta arity",
			in:      "#gebe m 1 1 2\n#meta shard 0 2 0\nu 0 1 2\nv 0 1 2\n",
			wantErr: "#meta shard needs 4 values",
		},
		{
			name:    "shard index outside count",
			in:      "#gebe m 1 1 2\n#meta shard 2 2 0 4\nu 0 1 2\nv 0 1 2\n",
			wantErr: "inconsistent #meta shard",
		},
		{
			name:    "shard slice outside total",
			in:      "#gebe m 1 2 2\n#meta shard 1 2 3 4\nu 0 1 2\nv 0 1 2\nv 1 3 4\n",
			wantErr: "covers rows [3,5) of only 4 items",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEmbedding(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("input accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// Rows may arrive in any order and interleaved across sides; a
	// complete, finite file must still load.
	ok := "#gebe m 2 2 2\nv 1 1 2\nu 1 3 4\nv 0 5 6\nu 0 7 8\n"
	e, err := ReadEmbedding(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("interleaved complete embedding rejected: %v", err)
	}
	if e.U.At(1, 0) != 3 || e.V.At(0, 1) != 6 {
		t.Errorf("rows landed wrong: U=%v V=%v", e.U, e.V)
	}
}

// TestReadEmbeddingHeaderTooLarge: a header whose cell count fits in an
// int but not in memory (2·(2⁶²−1) cells; the old overflow guard let it
// through to a makeslice panic) must be refused with
// ErrEmbeddingTooLarge before anything is allocated, on either side.
func TestReadEmbeddingHeaderTooLarge(t *testing.T) {
	for _, in := range []string{
		"#gebe x 4611686018427387903 0 2\n",
		"#gebe x 0 4611686018427387903 2\n",
		"#gebe x 1 1 4294967297\n",
		"#gebe x 65537 0 65536\n",
	} {
		if _, err := ReadEmbedding(strings.NewReader(in)); !errors.Is(err, ErrEmbeddingTooLarge) {
			t.Errorf("ReadEmbedding(%q) = %v, want ErrEmbeddingTooLarge", in, err)
		}
	}
	// Small headers are untouched by the cap: an empty embedding loads.
	if _, err := ReadEmbedding(strings.NewReader("#gebe x 0 0 1\n")); err != nil {
		t.Errorf("empty embedding header rejected: %v", err)
	}
}

// TestShardMetaRoundTrip: a shard identity stamped by the splitter must
// survive write → read, and an unsharded embedding must not grow one.
func TestShardMetaRoundTrip(t *testing.T) {
	in := "#gebe m 2 3 2\nu 0 1 2\nu 1 3 4\nv 0 5 6\nv 1 7 8\nv 2 9 10\n"
	e, err := ReadEmbedding(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e.Sharded() {
		t.Fatalf("unsharded embedding parsed as shard: %+v", e)
	}
	e.ShardIndex, e.ShardCount, e.ShardOffset, e.ShardTotal = 1, 3, 4, 9
	var sb strings.Builder
	if err := WriteEmbedding(&sb, e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "#meta shard 1 3 4 9\n") {
		t.Fatalf("shard meta line missing:\n%s", sb.String())
	}
	back, err := ReadEmbedding(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.ShardIndex != 1 || back.ShardCount != 3 || back.ShardOffset != 4 || back.ShardTotal != 9 {
		t.Fatalf("shard meta did not round-trip: %+v", back)
	}
}

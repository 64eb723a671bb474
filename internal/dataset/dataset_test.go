package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part0.dsud")
	db := uncertain.DB{
		{ID: 1, Point: geom.Point{1, 2}, Prob: 0.5},
		{ID: 2, Point: geom.Point{3, 4}, Prob: 0.9},
	}
	if err := Save(path, 2, db); err != nil {
		t.Fatal(err)
	}
	got, dims, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if dims != 2 || len(got) != 2 {
		t.Fatalf("dims=%d len=%d", dims, len(got))
	}
	for i := range db {
		if got[i].ID != db[i].ID || !got[i].Point.Equal(db[i].Point) || got[i].Prob != db[i].Prob {
			t.Fatalf("tuple %d mangled: %v vs %v", i, got[i], db[i])
		}
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.dsud")
	bad := uncertain.DB{{ID: 1, Point: geom.Point{1}, Prob: 2}}
	if err := Save(path, 1, bad); err == nil {
		t.Fatal("invalid db must be rejected")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file must fail")
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(junk); err == nil || !strings.Contains(err.Error(), "is not a dsud dataset") {
		t.Fatalf("a file without the DSQB magic must be refused as not a dsud dataset, got %v", err)
	}
}

func TestEmptyDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.dsud")
	if err := Save(path, 3, uncertain.DB{}); err != nil {
		t.Fatal(err)
	}
	got, dims, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || dims != 3 {
		t.Fatalf("got %d tuples dims %d", len(got), dims)
	}
}

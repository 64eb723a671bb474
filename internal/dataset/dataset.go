// Package dataset persists uncertain databases to disk so the CLI tools
// can hand partitions between dsud-gen, dsud-site and dsud-query, in the
// compact checksummed binary format of internal/codec.
package dataset

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/codec"
	"repro/internal/uncertain"
)

// Save writes db (dimensionality dims) to path, creating or truncating
// it, in the binary codec format.
func Save(path string, dims int, db uncertain.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := codec.EncodeDB(f, dims, db); err != nil {
		f.Close()
		return fmt.Errorf("dataset: encode %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: close %s: %w", path, err)
	}
	return nil
}

// Load reads a partition saved by Save. Anything without the codec's
// file magic is refused before decoding.
func Load(path string) (uncertain.DB, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: %w", err)
	}
	if !bytes.HasPrefix(raw, []byte("DSQB")) {
		return nil, 0, fmt.Errorf("dataset: %s is not a dsud dataset", path)
	}
	db, dims, err := codec.DecodeDB(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return db, dims, nil
}

// Package cli holds the file plumbing cmd/certainfix and cmd/certainfixd
// share: reading a rules file, reading a CSV relation, and opening a
// System from a master CSV or a master arena snapshot.
package cli

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/pkg/certainfix"
)

// LoadRules parses a rules file: the two schema headers followed by the
// rule DSL (the format of certainfix.ParseRulesWithSchemas).
func LoadRules(path string) (r, rm *certainfix.Schema, rules *certainfix.Rules, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	r, rm, rules, err = certainfix.ParseRulesWithSchemas(string(data))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, rm, rules, nil
}

// LoadCSV reads a relation over schema from a CSV file with a header row.
func LoadCSV(schema *certainfix.Schema, path string) (*certainfix.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := certainfix.ReadCSV(schema, bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, nil
}

// OpenSystem constructs the System: from the master arena image when
// snapshot names an existing file (cold start by page-in), otherwise from
// the master CSV, streamed — saving the freshly built snapshot to the
// snapshot path, if given, so the next start takes the fast path. Which of
// the two happened is reported on stderr under the running command's name.
// Neither file is read when opts name a WAL directory that already holds
// the lineage.
func OpenSystem(rules *certainfix.Rules, masterPath, snapshot string, opts ...certainfix.Option) (*certainfix.System, error) {
	prog := filepath.Base(os.Args[0])
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			sys, err := certainfix.NewFromArena(rules, snapshot, opts...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", snapshot, err)
			}
			fmt.Fprintf(os.Stderr, "%s: master loaded from arena %s\n", prog, snapshot)
			return sys, nil
		}
	}
	if masterPath == "" {
		return nil, fmt.Errorf("-master is required when %s does not exist yet", snapshot)
	}
	sys, err := certainfix.NewFromCSV(rules, masterPath, opts...)
	if err != nil {
		return nil, err
	}
	if snapshot != "" {
		if err := sys.SaveMasterArena(snapshot); err != nil {
			return nil, fmt.Errorf("save %s: %w", snapshot, err)
		}
		fmt.Fprintf(os.Stderr, "%s: master arena saved to %s\n", prog, snapshot)
	}
	return sys, nil
}

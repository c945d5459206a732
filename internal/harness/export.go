package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// CSV writes the table as RFC-4180 CSV: one header record, one record per
// row. Notes are emitted as trailing comment-style records prefixed with
// "#" in the first field.
func (t Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("harness: csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("harness: csv row: %w", err)
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return fmt.Errorf("harness: csv note: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the table as indented JSON.
func (t Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

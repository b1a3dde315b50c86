package relation

import "io"

// ReadCSVBlock is ReadCSV reading rd in blocks of the given size: a small
// one puts chunk boundaries anywhere in a record.
func ReadCSVBlock(schema *Schema, rd io.Reader, block int) (*Relation, error) {
	return readCSV(schema, rd, block)
}

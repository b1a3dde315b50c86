package relation

// ScanRingRows is how many decoded rows ScanCSV's ring holds: an input
// longer than this streams through recycled batches.
const ScanRingRows = scanBatches * scanBatchRows

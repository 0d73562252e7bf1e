"""Rows of trace.csv, formatted with the standard library alone.

write_rows formats consecutive trace rows; fileio.write_trace calls it for
the rows it formats itself. Run as a script, the module formats a stream of
packed chunks read from stdin, one chunk per trace, and writes each chunk's
rows to stdout:

    python -I -S tracerows.py < chunks > rows

which lets write_trace hand the tail of one large trace to a second CPU.
write_chunk writes a chunk: a header of four uint64 (k0, n, d, rows), then
rows deltas and rows * n * d state values as float64, then the converged
and the diverged flag of each row as one byte each. For each chunk, in order, stdout gets the byte length of its rows as
one uint64 and then the rows; copy_rows appends one such entry to a file.
All numbers are in the byte order of the machine that writes and reads them.
The script imports neither numpy nor affinesim, so it starts in a few
milliseconds."""

import io
import struct
import sys

CHUNK_HEADER = struct.Struct("=4Q")
ROWS_LENGTH = struct.Struct("=Q")
# copy_rows moves rows in pieces of at most this many bytes.
COPY_BYTES = 2**16


def write_rows(fh, k0, n, d, values, deltas, converged, diverged):
    """Write one row per (step, agent, coordinate) for len(deltas) steps
    numbered from k0. values holds each step's n * d states in agent order
    as floats (a list or a memoryview); the flags are bools or 0/1 ints.

    One write per step; the bytes are what csv.writer produces for the
    same rows, as no field needs quoting."""
    cells = [f"{agent},{coord}," for agent in range(1, n + 1) for coord in range(d)]
    width = n * d
    for i, (delta, done, failed) in enumerate(zip(deltas, converged, diverged)):
        head = f"{k0 + i},"
        tail = f",{delta!r},{int(done)},{int(failed)}\n"
        row = map(repr, values[i * width : (i + 1) * width])
        fh.write(head + (tail + head).join(map(str.__add__, cells, row)) + tail)


def write_chunk(fh, k0, n, d, deltas, states, converged, diverged):
    """Write the chunk of len(deltas) rows numbered from k0. deltas and
    states are float64 buffers holding rows and rows * n * d values; the
    flags are buffers of one byte per row."""
    fh.write(CHUNK_HEADER.pack(k0, n, d, len(deltas)))
    for column in (deltas, states, converged, diverged):
        fh.write(column)


def format_chunks(source, sink):
    """Format every chunk of the binary stream source into sink, each as
    its length-prefixed rows."""
    while header := source.read(CHUNK_HEADER.size):
        k0, n, d, rows = CHUNK_HEADER.unpack(header)
        stop = 8 * rows * (1 + n * d)
        chunk = memoryview(source.read(stop + 2 * rows))
        floats, flags = chunk[:stop].cast("d"), chunk[stop:]
        text = io.StringIO()
        write_rows(text, k0, n, d, floats[rows:], floats[:rows], flags[:rows], flags[rows:])
        data = text.getvalue().encode()
        sink.write(ROWS_LENGTH.pack(len(data)))
        sink.write(data)


def copy_rows(formatted, fh):
    """Copy the next length-prefixed rows of format_chunks' output to fh, in
    pieces of at most COPY_BYTES, so no trace is held in memory whole."""
    (left,) = ROWS_LENGTH.unpack(formatted.read(ROWS_LENGTH.size))
    while left:
        piece = formatted.read(min(left, COPY_BYTES))
        if not piece:
            raise OSError("trace formatter output ends inside a trace")
        fh.write(piece)
        left -= len(piece)


if __name__ == "__main__":
    format_chunks(sys.stdin.buffer, sys.stdout.buffer)

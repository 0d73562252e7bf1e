"""Rows of trace.csv, formatted with the standard library alone.

write_rows formats consecutive trace rows; fileio.write_trace calls it for
the rows it formats itself. Run as a script, the module formats one packed
chunk read from stdin and writes its rows to stdout:

    python -I -S tracerows.py < chunk > rows

which lets write_trace hand the tail of a large trace to a second CPU. The
chunk is a header of four uint64 (k0, n, d, rows), then rows deltas and
rows * n * d state values as float64, then the converged and the diverged
flag of each row as one byte each, all in the byte order of the machine
that writes and reads it. The script imports neither numpy nor affinesim,
so it starts in a few milliseconds.
"""

import struct
import sys

CHUNK_HEADER = struct.Struct("=4Q")


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


if __name__ == "__main__":
    chunk = memoryview(sys.stdin.buffer.read())
    k0, n, d, rows = CHUNK_HEADER.unpack_from(chunk)
    start = CHUNK_HEADER.size
    stop = start + 8 * rows * (1 + n * d)
    floats, flags = chunk[start:stop].cast("d"), chunk[stop:]
    sys.stdout.reconfigure(newline="")
    write_rows(sys.stdout, k0, n, d, floats[rows:], floats[:rows], flags[:rows], flags[rows:])

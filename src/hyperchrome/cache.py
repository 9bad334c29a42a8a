"""Line-oriented cache for extremal search results.

One record per line, tab-separated:

    kind <TAB> key <TAB> param <TAB> value <TAB> status <TAB> witness

where kind is "ex" or "ramsey", key is the canonical encoding of H, param is
n (ex) or t (ramsey), status is "exact" or "lower_bound", and witness encodes
a hypergraph as n:k:v1,v2,v3/v4,v5,v6 with 1-based vertices.  Unparseable
lines are evicted on load; semantic revalidation happens at lookup time in
the extremal module, which serves only exact records.  A lower_bound record
never replaces an exact one.  Each write re-reads the file under a lock on
PATH.lock, applies one change and replaces the whole file atomically, so
concurrent writers lose no records.
"""

import fcntl
import os
from collections import namedtuple

from .core import new_hypergraph


class ResultRecord(namedtuple("ResultRecord",
                              "kind key param value status witness")):
    # kind "ex" | "ramsey"; key the canonical encoding of H; param n for
    # ex, t for ramsey; status "exact" | "lower_bound"; witness a Hypergraph
    __slots__ = ()


def encode_graph(G):
    body = "/".join(",".join(str(v + 1) for v in e) for e in G.edges)
    return f"{G.n}:{G.k}:{body}"


def decode_graph(text):
    head_n, head_k, body = text.split(":")
    n, k = int(head_n), int(head_k)
    edges = []
    if body:
        for part in body.split("/"):
            edges.append(tuple(int(v) - 1 for v in part.split(",")))
    return new_hypergraph(n, k, edges)


class ResultCache:
    """A cache file that any number of writers may share.

    Each put or evict takes an exclusive ``flock`` on the sidecar file
    ``PATH.lock``, re-reads the cache file, applies that one change and
    replaces the file atomically.  Records other writers stored since this
    cache was loaded survive, and one they evicted stays evicted.  The lock
    sits on its own file because ``os.replace`` gives the cache file a new
    inode at every write.
    """

    def __init__(self, path):
        self.path = path
        self.records = self._load()

    def _load(self):
        records = {}
        if not os.path.exists(self.path):
            return records
        with open(self.path, "rb") as fh:
            lines = fh.read().splitlines()  # the line ends text mode splits at
        for raw in lines:
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                kind, key, param, value, status, witness = line.split("\t")
                if kind not in ("ex", "ramsey"):
                    raise ValueError(kind)
                if status not in ("exact", "lower_bound"):
                    raise ValueError(status)
                rec = ResultRecord(kind, key, int(param), int(value),
                                   status, decode_graph(witness))
            except (ValueError, IndexError):
                continue  # corrupt line: evict by not loading it
            records[(rec.kind, rec.key, rec.param)] = rec
        return records

    def get(self, kind, key, param):
        return self.records.get((kind, key, param))

    def put(self, rec):
        """Store rec, unless it is a lower bound and an exact record exists."""
        self._update((rec.kind, rec.key, rec.param), rec)

    def evict(self, kind, key, param):
        self._update((kind, key, param), None)

    def _update(self, slot, rec):
        """Store rec at slot (None: drop the slot) in the latest file."""
        with open(self.path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when lock closes
            self.records = self._load()
            if self._apply(self.records, slot, rec):
                self._write()

    @staticmethod
    def _apply(records, slot, rec):
        """Apply one put (rec) or evict (None); True if records changed."""
        if rec is None:
            return records.pop(slot, None) is not None
        old = records.get(slot)
        if (rec.status == "lower_bound" and old is not None
                and old.status == "exact"):
            return False
        records[slot] = rec
        return True

    def _write(self):
        import tempfile
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for rec in sorted(self.records.values(),
                                  key=lambda r: (r.kind, r.key, r.param)):
                    fh.write("\t".join((rec.kind, rec.key, str(rec.param),
                                        str(rec.value), rec.status,
                                        encode_graph(rec.witness))) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

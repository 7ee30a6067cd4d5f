"""Span recording around risalloc's public functions, from outside the library.

``Tracer.install`` wraps every public module-level function of the twelve
risalloc modules and patches each place the function is looked up: the
module globals of every risalloc module (so ``training`` calling its imported
``objective_value_and_gradients`` and ``brute`` calling its imported
``sum_utility`` are both caught), the package namespace, and dicts of
functions such as the CLI's command table. ``uninstall`` restores them.

Spans live in flat in-memory arrays (name id, start, end, parent index,
workload operation index) and are written out once, after the run. Self
time is a span's duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ("geometry", "channel", "dataio", "serial", "metrics", "allocation",
           "bcd", "brute", "features", "mlp", "training", "cli")


def _mlp_forward_name(args, kwargs):
    train_mode = _arg(args, kwargs, 2, "train_mode")
    return "mlp.mlp_forward.train" if train_mode else "mlp.mlp_forward.eval"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dataset_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in ("records.bin", "manifest.json"))


# Span names that depend on an argument, and counters read off a call's
# arguments or result. Counter callbacks get (args, kwargs, result).
_NAMERS = {"mlp.mlp_forward": _mlp_forward_name}
_COUNTERS = {
    "serial.encode_named_arrays": lambda a, k, out: {"serial.encode_named_arrays.bytes": len(out)},
    "serial.decode_named_arrays": lambda a, k, out: {
        "serial.decode_named_arrays.bytes": len(_arg(a, k, 0, "payload"))},
    "dataio.generate_dataset": lambda a, k, out: {
        "dataio.bytes_written": _dataset_bytes(_arg(a, k, 4, "path"))},
    "dataio.load_dataset": lambda a, k, out: {
        "dataio.bytes_read": _dataset_bytes(_arg(a, k, 0, "path"))},
    "mlp.save_checkpoint": lambda a, k, out: {
        "mlp.save_checkpoint.bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "bcd.bcd_optimize": lambda a, k, out: {"bcd.outer_iters": len(out[2].objectives) - 1},
    "training.train": lambda a, k, out: {"training.epochs": len(out.history)},
    "features.pca_fit": lambda a, k, out: {"features.pca_retained": out.retained},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.counts: dict[str, float] = {}
        self.op_index = -1
        self.recording = False
        self._stack: list[int] = []
        self._undo: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        namer = _NAMERS.get(name)
        counter = _COUNTERS.get(name)
        fixed_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            nid = self._intern(namer(args, kwargs)) if namer else fixed_id
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_index)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter:
                for key, value in counter(args, kwargs, out).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return out

        return traced

    def install(self):
        """Wrap every public function and patch every lookup site."""
        package = importlib.import_module("risalloc")
        mods = [importlib.import_module(f"risalloc.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for namespace in [vars(m) for m in mods + [package]]:
            targets = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
            for target in targets:
                for key, value in list(target.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._undo.append((target, key, value))
                        target[key] = wrapped[value]

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            target[key] = value
        self._undo.clear()

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy()}

    def write(self, path):
        """Write every span plus the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds, self seconds, as plain dicts.

        Also returns helper views used for cross-layer counters: the name of
        each span's parent, and whether each span runs inside training.train.
        """
        sp = self.arrays()
        n = sp["start"].size
        names = np.array(self.names + [""], dtype=object)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        stats = {}
        for nid, name in enumerate(self.names):
            sel = sp["name_id"] == nid
            stats[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                           "self_s": float(self_t[sel].sum())}
        parent_name = names[np.where(has_parent, sp["name_id"][np.maximum(sp["parent"], 0)], -1)]
        in_train = np.zeros(n, dtype=bool)
        if "training.train" in self._ids:
            train_sel = sp["name_id"] == self._ids["training.train"]
            starts, ends = sp["start"][train_sel], sp["end"][train_sel]
            pos = np.searchsorted(starts, sp["start"], side="right") - 1
            ok = pos >= 0
            in_train[ok] = sp["end"][ok] <= ends[pos[ok]]
            in_train &= ~train_sel
        roots = ~has_parent
        return {"stats": stats, "name": names[sp["name_id"]], "parent_name": parent_name,
                "in_train": in_train, "dur": dur, "self": self_t,
                "root_time": float(dur[roots].sum()), "spans": n}

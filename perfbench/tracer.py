"""Span tracer that measures semloc's layers from outside the package.

`Tracer.install()` rebinds public functions of `scenario`, `dataio`,
`features`, `engine`, `models`, `losses`, `training` and `cli` to timing
wrappers, in every semloc module that holds a reference to them, and
`uninstall()` puts the originals back.  Nothing under `src/` is edited.

A span is one call into a layer: name, start, end and its parent (the
span open when it started).  Self time is a span's duration minus the
time of its child spans, so the self times of all spans partition the
traced time.  Spans are kept as running sums in memory.

Attribution rules:

- Only the outermost engine primitive opens a span.  Primitives called
  inside it (batch_norm's tmean/square/power, a conv bias add) run
  inside that span, so their time is the composite's.
- Every tensor a primitive returns gets its `_backward` closure wrapped.
  The wrapper times the adjoint under the primitive kind that was active
  when the tensor was created, and under the layer or loss term that was
  active then (`theta1.conv0`, `losses.kt`, ...).
- Layers have no call boundary of their own inside `Model.forward`; a
  layer span opens when `conv2d` or `matmul` is called with that layer's
  weight tensor and lasts until the next layer starts or the forward
  pass returns, so pooling, ReLU and batch norm count to their block.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# engine primitive -> reported kind; everything else is "elementwise"
_KINDS = {"conv2d": "conv2d", "batch_norm": "batch_norm",
          "max_pool2d": "max_pool2d", "relu": "relu", "matmul": "matmul",
          "softmax": "softmax", "log_softmax": "softmax"}
_ELEMENTWISE = ("add", "sub", "mul", "div", "power", "exp", "log", "square",
                "tabs", "clip", "sigmoid", "tsum", "tmean", "reshape",
                "concat", "kron")
KINDS = ("conv2d", "batch_norm", "max_pool2d", "relu", "matmul", "softmax",
         "elementwise")
LAYERS = ("theta1.conv0", "theta1.conv1", "theta1.conv2", "theta1.conv3",
          "theta2", "theta3")
LOSS_TERMS = ("cr", "pcp", "kt", "wr")
MODULES = ("engine", "models", "losses", "training", "features", "scenario",
           "dataio", "cli")


def _layer_of(param_name):
    """`theta1.conv2.w` -> `theta1.conv2`; `theta2.lin1.w` -> `theta2`."""
    parts = param_name.split(".")
    if parts[0] == "theta1":
        return ".".join(parts[:2])
    return parts[0]


def _dir_bytes(path, names):
    return sum(os.path.getsize(os.path.join(path, n)) for n in names
               if os.path.exists(os.path.join(path, n)))


class Tracer:
    """Per-layer span sums and counters for one traced measurement."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.ctx_bw_s = defaultdict(float)   # layer / loss term -> adjoint s
        # check_finite: seconds, calls, calls from Tensor construction
        self._finite = [0.0, 0, 0]
        # adjoint accumulations: all, into requires_grad tensors, bytes into
        # tensors that need no gradient
        self._adjoint = [0, 0, 0]
        self._nodes = [0]         # adjoint closures run by backward
        self._conv = [0.0, 0.0]   # conv2d FLOPs and bytes, from shapes
        self._traced_code = None
        self.step_ms = []
        self.train_logs = []
        self._stack = []      # [key, start, child seconds]
        self._prim = None     # kind of the open outermost primitive
        self._ctx = None      # layer or loss term new tensors belong to
        self._layers = None   # id(weight tensor) -> layer, inside forward
        self._layer = None
        self._in_train = 0
        self._step_t0 = None
        self._patches = []
        self._layer_maps = {}

    # -- spans -----------------------------------------------------------
    def _enter(self, key):
        self._stack.append([key, _clock(), 0.0])

    def _exit(self):
        key, t0, child = self._stack.pop()
        dur = _clock() - t0
        self.self_s[key] += dur - child
        self.incl_s[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _span(self, key, fn):
        def wrapper(*args, **kwargs):
            self._enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- patching --------------------------------------------------------
    def _rebind(self, orig, new):
        """Replace every module-level reference to `orig` in semloc."""
        for name, mod in list(sys.modules.items()):
            if not (name == "semloc" or name.startswith("semloc.")):
                continue
            d = vars(mod)
            for attr, val in list(d.items()):
                if val is orig:
                    self._patches.append((d, attr, orig))
                    d[attr] = new

    def _setattr(self, cls, attr, new):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches = []

    def install(self):
        from semloc import (cli, dataio, engine, features, losses, models,
                            scenario, training)
        self._install_engine(engine)
        self._install_models(models)
        self._install_losses(losses)
        self._install_training(training, models)
        rb = self._rebind
        rb(features.fingerprint_pipeline,
           self._pipeline(features.fingerprint_pipeline))
        self._install_scenario(scenario)
        self._install_dataio(dataio)
        rb(cli.cmd_gen, self._span("cli.gen", cli.cmd_gen))
        rb(cli.cmd_eval, self._span("cli.eval", cli.cmd_eval))

    # -- engine ----------------------------------------------------------
    def _install_engine(self, engine):
        for name, kind in _KINDS.items():
            self._rebind(getattr(engine, name),
                         self._primitive(getattr(engine, name), kind))
        for name in _ELEMENTWISE:
            self._rebind(getattr(engine, name),
                         self._primitive(getattr(engine, name), "elementwise"))
        self._rebind(engine._check_finite,
                     self._check_finite(engine._check_finite))

        self._setattr(engine.Tensor, "backward",
                      self._span("engine.backward", engine.Tensor.backward))
        sgd_step = self._span("engine.sgd.step", engine.SGD.step)

        def step(opt):
            sgd_step(opt)
            if self._step_t0 is not None:
                self.step_ms.append(1e3 * (_clock() - self._step_t0))
                self._step_t0 = None

        self._setattr(engine.SGD, "step", step)

    def _check_finite(self, fn):
        # the hottest hook (every tensor, every adjoint), so it updates plain
        # list cells instead of opening a full span
        stack, finite = self._stack, self._finite
        graph = ("engine.backward", "engine.sgd.step")

        def check_finite(a, what="tensor"):
            t0 = _clock()
            try:
                fn(a, what)
            finally:
                d = _clock() - t0
                finite[0] += d
                finite[1] += 1
                if stack:
                    top = stack[-1]
                    top[2] += d
                    if top[0] not in graph:  # Tensor.__init__ checks once
                        finite[2] += 1
                else:
                    finite[2] += 1
        return check_finite

    def _primitive(self, fn, kind):
        fw_key = f"engine.{kind}.fw"
        switches_layer = kind in ("conv2d", "matmul")
        stack, self_s, incl_s = self._stack, self.self_s, self.incl_s

        def wrapper(*args, **kwargs):
            if self._prim is not None:  # nested: belongs to the composite
                out = fn(*args, **kwargs)
                self._tag(out, self._prim)
                return out
            if switches_layer and self._layers is not None:
                self._switch_layer(args[1] if len(args) > 1 else None)
            self._prim = kind
            frame = [fw_key, _clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                d = _clock() - frame[1]
                self_s[fw_key] += d - frame[2]
                incl_s[fw_key] += d
                if stack:
                    stack[-1][2] += d
                self._prim = None
            if kind == "conv2d":
                self._tag(out, kind, self._conv_cost(args[0], args[1], out))
            else:
                self._tag(out, kind)
            return out

        return wrapper

    def _conv_cost(self, x, w, out):
        """Forward FLOPs and compulsory bytes of one conv2d, from shapes."""
        f, c, kh, kw = w.shape
        b, _, ho, wo = out.shape
        flop = 2.0 * b * f * c * kh * kw * ho * wo
        nx, nw = math.prod(x.shape), math.prod(w.shape)
        ny = math.prod(out.shape)
        self._conv[0] += flop
        self._conv[1] += 8.0 * (nx + nw + ny)
        # backward: weight and input gradients, each as costly as forward;
        # reads g, x, w and writes gw, gx
        return 2.0 * flop, 8.0 * (ny + 2 * nx + 2 * nw)

    def _tag(self, out, kind, bw_cost=None):
        bw = getattr(out, "_backward", None)
        if bw is None or bw.__code__ is self._traced_code:
            return
        key, ctx, stack = f"engine.{kind}.bw", self._ctx, self._stack
        self_s, incl_s, ctx_bw = self.self_s, self.incl_s, self.ctx_bw_s
        nodes, conv, adj = self._nodes, self._conv, self._adjoint
        parents = out._parents  # every adjoint accumulates once per parent

        def traced(g):
            frame = [key, _clock(), 0.0]
            stack.append(frame)
            try:
                bw(g)
            finally:
                stack.pop()
                d = _clock() - frame[1]
                self_s[key] += d - frame[2]
                incl_s[key] += d
                ctx_bw[ctx] += d
                if stack:
                    stack[-1][2] += d
            nodes[0] += 1
            for p in parents:
                adj[0] += 1
                if p.requires_grad:
                    adj[1] += 1
                else:
                    adj[2] += p.data.nbytes
            if bw_cost is not None:
                conv[0] += bw_cost[0]
                conv[1] += bw_cost[1]

        self._traced_code = traced.__code__
        out._backward = traced

    # -- models ----------------------------------------------------------
    def _switch_layer(self, weight):
        layer = self._layers.get(id(weight))
        if layer is None or layer == self._layer:
            return
        if self._layer is not None:
            self._exit()
        self._enter(f"models.{layer}.fw")
        self._layer = layer
        self._ctx = f"models.{layer}"

    def _install_models(self, models):
        orig = models.Model.forward

        def forward(model, x, train=False):
            key = "models.forward_train" if train else "models.forward_eval"
            if train and self._step_t0 is None:
                self._step_t0 = _clock()
            layers = self._layer_maps.get(id(model))
            if layers is None:
                layers = {id(p): _layer_of(n) for n, p in model.params.items()
                          if n.endswith(".w")}
                self._layer_maps[id(model)] = layers
            saved = self._layers, self._layer, self._ctx
            self._layers, self._layer = layers, None
            self._enter(key)
            try:
                return orig(model, x, train)
            finally:
                if self._layer is not None:
                    self._exit()
                self._exit()
                self._layers, self._layer, self._ctx = saved

        self._setattr(models.Model, "forward", forward)

    # -- losses ----------------------------------------------------------
    def _loss(self, key, fn):
        timed = self._span(key, fn)

        def wrapper(*args, **kwargs):
            saved, self._ctx = self._ctx, key
            try:
                return timed(*args, **kwargs)
            finally:
                self._ctx = saved
        return wrapper

    def _install_losses(self, losses):
        for name, key in (("mda_total", "losses.objective"),
                          ("hda_total", "losses.objective"),
                          ("loss_cr", "losses.cr"), ("loss_pcp", "losses.pcp"),
                          ("local_align", "losses.kt"),
                          ("global_align", "losses.kt"),
                          ("loss_wr", "losses.wr")):
            fn = getattr(losses, name)
            self._rebind(fn, self._loss(key, fn))

    # -- training --------------------------------------------------------
    def _install_training(self, training, models):
        train_span = self._span("training.train", training.train)

        def train(*args, **kwargs):
            self._in_train += 1
            try:
                result = train_span(*args, **kwargs)
            finally:
                self._in_train -= 1
            self.train_logs.append(result.log_csv)
            return result

        val_span = self._span("training.val_eval", training.evaluate_arrays)
        eval_span = self._span("training.eval", training.evaluate_arrays)

        def evaluate_arrays(*args, **kwargs):
            span = val_span if self._in_train else eval_span
            return span(*args, **kwargs)

        rb = self._rebind
        rb(training.train, train)
        rb(training.evaluate_arrays, evaluate_arrays)
        for name in ("run_ablation", "evaluate", "prepare_domains"):
            fn = getattr(training, name)
            rb(fn, self._span(f"training.{name}", fn))
        self._setattr(models.Model, "state_dict",
                      self._span("training.state_dict",
                                 models.Model.state_dict))

    # -- features, scenario, dataio --------------------------------------
    def _pipeline(self, fn):
        timed = self._span("features.pipeline", fn)

        def wrapper(cfr_batch, *args, **kwargs):
            self.counts["features.samples"] += len(cfr_batch)
            return timed(cfr_batch, *args, **kwargs)
        return wrapper

    def _install_scenario(self, scenario):
        rb = self._rebind
        for name in ("generate_dataset", "make_scene", "synth_cfr"):
            fn = getattr(scenario, name)
            rb(fn, self._span(f"scenario.{name}", fn))
        timed = self._span("scenario.trace_paths", scenario.trace_paths)
        empty = scenario.EmptyLink

        def trace_paths(*args, **kwargs):
            try:
                out = timed(*args, **kwargs)
            except empty:
                self.counts["scenario.dropped"] += 1
                raise
            self.counts["scenario.links"] += 1
            return out

        rb(scenario.trace_paths, trace_paths)

    def _install_dataio(self, dataio):
        data_files = ("manifest.json", "cfr.bin", "coords.bin", "labels.bin")
        ckpt_files = ("manifest.json", "params.bin")
        save_ds = self._span("dataio.save_dataset", dataio.save_dataset)
        load_ds = self._span("dataio.load_dataset", dataio.load_dataset)
        save_ck = self._span("dataio.checkpoint", dataio.save_checkpoint)
        load_ck = self._span("dataio.checkpoint", dataio.load_checkpoint)
        c = self.counts

        def save_dataset(ds, out_dir):
            save_ds(ds, out_dir)
            c["dataio.bytes_written"] += _dir_bytes(out_dir, data_files)

        def load_dataset(in_dir):
            c["dataio.bytes_read"] += _dir_bytes(in_dir, data_files)
            return load_ds(in_dir)

        def save_checkpoint(out_dir, param_data, manifest):
            save_ck(out_dir, param_data, manifest)
            c["dataio.bytes_written"] += _dir_bytes(out_dir, ckpt_files)

        def load_checkpoint(in_dir):
            c["dataio.bytes_read"] += _dir_bytes(in_dir, ckpt_files)
            return load_ck(in_dir)

        rb = self._rebind
        rb(dataio.save_dataset, save_dataset)
        rb(dataio.load_dataset, load_dataset)
        rb(dataio.save_checkpoint, save_checkpoint)
        rb(dataio.load_checkpoint, load_checkpoint)

    # -- report ----------------------------------------------------------
    def self_total_s(self):
        return sum(self.self_s.values()) + self._finite[0]

    def module_self_s(self):
        """Self seconds summed per semloc module."""
        out = dict.fromkeys(MODULES, 0.0)
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        out["engine"] += self._finite[0]
        return out

    def metrics(self, n_iter):
        """Every per-layer metric, per iteration of the workload."""
        s, incl, calls, c = self.self_s, self.incl_s, self.calls, self.counts
        m = {}
        for kind in KINDS:
            m[f"engine.{kind}.fw_s"] = s[f"engine.{kind}.fw"]
            m[f"engine.{kind}.bw_s"] = s[f"engine.{kind}.bw"]
        m["engine.conv2d.gflop"] = self._conv[0] / 1e9
        m["engine.conv2d.mb_moved"] = self._conv[1] / 1e6
        adjoint_s = sum(v for k, v in incl.items() if k.endswith(".bw"))
        m["engine.backward.s"] = incl["engine.backward"]
        m["engine.backward.overhead_s"] = incl["engine.backward"] - adjoint_s
        m["engine.backward.nodes"] = self._nodes[0]
        m["engine.tensors"] = self._finite[2]
        m["engine.check_finite.calls"] = self._finite[1]
        m["engine.check_finite.s"] = self._finite[0]
        acc, useful, wasted = self._adjoint
        m["engine.adjoint.accumulations"] = acc
        m["engine.adjoint.wasted_mb"] = wasted / 1e6
        m["engine.sgd.step_s"] = s["engine.sgd.step"]

        m["models.forward_train.s"] = incl["models.forward_train"]
        m["models.forward_eval.s"] = incl["models.forward_eval"]
        for layer in LAYERS:
            m[f"models.{layer}.fw_s"] = incl[f"models.{layer}.fw"]
            m[f"models.{layer}.bw_s"] = self.ctx_bw_s[f"models.{layer}"]

        m["losses.objective.fw_s"] = incl["losses.objective"]
        for term in LOSS_TERMS:
            m[f"losses.{term}.fw_s"] = incl[f"losses.{term}"]
        m["losses.bw_s"] = sum(v for k, v in self.ctx_bw_s.items()
                               if k and k.startswith("losses."))
        m["losses.cr.calls"] = calls["losses.cr"]

        m["training.steps"] = calls["engine.sgd.step"]
        m["training.val_eval.s"] = incl["training.val_eval"]
        m["training.state_dict.s"] = incl["training.state_dict"]
        m["training.prepare_domains.calls"] = calls["training.prepare_domains"]
        m["training.prepare_domains.s"] = incl["training.prepare_domains"]

        m["features.pipeline.s"] = incl["features.pipeline"]
        m["features.pipeline.calls"] = calls["features.pipeline"]
        m["features.samples"] = c["features.samples"]

        for name in ("make_scene", "trace_paths", "synth_cfr"):
            m[f"scenario.{name}.s"] = incl[f"scenario.{name}"]
        m["scenario.links"] = c["scenario.links"]
        m["scenario.dropped"] = c["scenario.dropped"]

        m["dataio.save_dataset.s"] = incl["dataio.save_dataset"]
        m["dataio.load_dataset.s"] = incl["dataio.load_dataset"]
        m["dataio.checkpoint.s"] = incl["dataio.checkpoint"]
        m["dataio.bytes_written"] = c["dataio.bytes_written"]
        m["dataio.bytes_read"] = c["dataio.bytes_read"]

        m["cli.gen.s"] = incl["cli.gen"]
        m["cli.eval.s"] = incl["cli.eval"]

        m = {k: v / n_iter for k, v in m.items()}
        # ratios and per-step percentiles are not summed over iterations
        m["engine.adjoint.useful_ratio"] = useful / acc if acc else 0.0
        m["training.step.p50_ms"] = _quantile(self.step_ms, 0.5)
        m["training.step.p90_ms"] = _quantile(self.step_ms, 0.9)
        return m


def _quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)

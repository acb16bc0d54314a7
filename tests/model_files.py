"""Helpers that read, edit and forge model files byte by byte, so tests
can build the damaged and outdated files a loader must reject."""

import base64
import json


def split_model_file(path):
    """(header dict, payload bytes) of a model file."""
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header), payload


def write_model_file(path, header, payload):
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


def version_3_document(net, topology):
    """A model file as a version-3 build wrote it: one multi-line JSON
    document with every parameter array as a base64 string."""
    def encode(arr):
        return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")

    def layer_doc(layer):
        return {"activation": layer.activation, "weights": encode(layer.weights),
                "biases": encode(layer.biases)}

    doc = {"format": "slidescreen-model", "format_version": 3, "topology": topology,
           "spec": {"branches": [{"name": b.name, "input_width": b.input_width,
                                  "hidden": list(b.hidden)} for b in net.spec.branches],
                    "head_hidden": list(net.spec.head_hidden)},
           "meta": {},
           "params": {"branches": [[layer_doc(layer) for layer in branch]
                                   for branch in net.branches],
                      "head": [layer_doc(layer) for layer in net.head]}}
    return json.dumps(doc, indent=1) + "\n"

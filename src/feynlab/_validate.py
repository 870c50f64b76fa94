"""JSON Schema validation for the keywords the config schema uses.

The keywords have their Draft 2020-12 meaning: $ref (into #/$defs), type,
enum, const, properties, required, additionalProperties (false), items,
minItems, minLength, minimum, maximum, exclusiveMinimum, multipleOf (a
positive integer), allOf and if/then.  The annotations $schema, $id,
title and description are ignored.  Loading a schema that uses anything
else (oneOf too), or a list or object as a const or enum value, raises
SchemaError, so a schema edit cannot slip past unchecked.

Violations come as ``(path, message)`` with jsonschema's message texts and
in its order (keywords in schema order, properties in schema order, items by
index), then sorted by path.  A bool is neither an integer nor a number,
1.0 is an integer, and enum and const tell true from 1.  ``check`` also
lists where a float such as 1.0 passed as an integer (by ``type: integer``
or an integer enum value), so a caller can read it as the int it stands
for; the walk records those places as ``(path, None)``.
"""

from __future__ import annotations

import numbers
import operator


class SchemaError(ValueError):
    """The schema uses a keyword, or a keyword form, this module lacks."""


def _number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _number,
    "integer": lambda x: _number(x) and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality of an instance a and a scalar b: true is not 1, 1.0 is 1."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return not isinstance(a, bool) and not isinstance(b, bool) and a == b


class Validator:
    """A checked schema; ``check(instance)`` lists every violation."""

    def __init__(self, schema: dict):
        self._defs = schema.get("$defs", {})
        _load(schema, self._defs, top=True)
        for sub in self._defs.values():
            _load(sub, self._defs)
        self._schema = schema

    def check(self, instance) -> tuple[list, list]:
        """``(errors, paths)``: every violation as ``(path, message)``, the
        path a tuple of keys and indices, sorted by path with ties in the
        order they were found; and the paths where a float passed as an
        integer."""
        found = []
        self._check(self._schema, instance, (), found)
        errors = sorted((e for e in found if e[1] is not None), key=operator.itemgetter(0))
        return errors, [path for path, message in found if message is None]

    def _check(self, schema, x, path, errors):
        for k, v in schema.items():
            keyword = _KEYWORDS.get(k)
            if keyword:
                keyword(self, v, schema, x, path, errors)

    def _valid(self, schema, x, path) -> bool:
        errors = []
        self._check(schema, x, path, errors)
        return all(message is None for _, message in errors)


def _load(schema, defs, top=False):
    """Raise SchemaError where schema, or a subschema, goes past this module;
    only the top level may hold $defs."""
    if not isinstance(schema, dict):
        raise SchemaError(f"subschema {schema!r} is not an object")
    unknown = schema.keys() - _KEYWORDS.keys() - _ANNOTATIONS - ({"$defs"} if top else set())
    ref, step = schema.get("$ref"), schema.get("multipleOf", 1)
    types, values = schema.get("type", ()), [*schema.get("enum", ()), schema.get("const")]
    if unknown:
        raise SchemaError(f"unsupported schema keyword(s): {', '.join(sorted(unknown))}")
    if ref is not None and (not ref.startswith("#/$defs/") or ref[8:] not in defs):
        raise SchemaError(f"unsupported $ref {ref!r}: only #/$defs/<name>")
    if schema.get("additionalProperties", False) is not False:
        raise SchemaError("additionalProperties must be false")
    if type(step) is not int or step <= 0:
        raise SchemaError("multipleOf must be a positive integer")
    if not set([types] if isinstance(types, str) else types) <= _TYPES.keys():
        raise SchemaError(f"unknown type in {types!r}")
    if any(isinstance(v, (list, dict)) for v in values):
        raise SchemaError("const and enum values must be scalars")
    for k, v in schema.items():
        if k in _APPLICATORS:
            for sub in v.values() if k == "properties" else v if k == "allOf" else [v]:
                _load(sub, defs)


# --- keywords: (validator, value, schema, instance, path, errors) ----------

def _ref(val, ref, s, x, path, errors):
    val._check(val._defs[ref[8:]], x, path, errors)


def _type(val, names, s, x, path, errors):
    names = [names] if isinstance(names, str) else names
    if not any(_TYPES[t](x) for t in names):
        errors.append((path, f"{x!r} is not of type {', '.join(map(repr, names))}"))
    elif isinstance(x, float) and "number" not in names:  # 3.0 passed as an integer
        errors.append((path, None))


def _enum(val, values, s, x, path, errors):
    if not any(_equal(x, e) for e in values):
        errors.append((path, f"{x!r} is not one of {values!r}"))
    elif isinstance(x, float) and any(type(e) is int and x == e for e in values):
        errors.append((path, None))


def _const(val, value, s, x, path, errors):
    if not _equal(x, value):
        errors.append((path, f"{value!r} was expected"))


def _properties(val, props, s, x, path, errors):
    if isinstance(x, dict):
        for k, sub in props.items():
            if k in x:
                val._check(sub, x[k], path + (k,), errors)


def _required(val, keys, s, x, path, errors):
    if isinstance(x, dict):
        errors.extend((path, f"{k!r} is a required property") for k in keys if k not in x)


def _no_additional(val, _, s, x, path, errors):
    if isinstance(x, dict):
        extras = sorted((k for k in x if k not in s.get("properties", ())), key=str)
        if extras:
            listed = ", ".join(map(repr, extras))
            verb = "was" if len(extras) == 1 else "were"
            errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))


def _items(val, sub, s, x, path, errors):
    if isinstance(x, list):
        for i, item in enumerate(x):
            val._check(sub, item, path + (i,), errors)


def _min_len(kind):
    def keyword(val, least, s, x, path, errors):
        if isinstance(x, kind) and len(x) < least:
            errors.append((path, f"{x!r} {'should be non-empty' if least == 1 else 'is too short'}"))
    return keyword


def _bound(fails, text):
    def keyword(val, limit, s, x, path, errors):
        if _number(x) and fails(x, limit):
            errors.append((path, f"{x!r} {text} {limit!r}"))
    return keyword


def _multiple_of(val, step, s, x, path, errors):
    if _number(x) and x % step:
        errors.append((path, f"{x!r} is not a multiple of {step}"))


def _all_of(val, subs, s, x, path, errors):
    for sub in subs:
        val._check(sub, x, path, errors)


def _if(val, cond, s, x, path, errors):
    if "then" in s and val._valid(cond, x, path):
        val._check(s["then"], x, path, errors)


_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description"})
_APPLICATORS = frozenset({"properties", "items", "allOf", "if", "then"})
# "then" is read by "if"
_KEYWORDS = {
    "$ref": _ref,
    "type": _type,
    "enum": _enum,
    "const": _const,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _no_additional,
    "items": _items,
    "minItems": _min_len(list),
    "minLength": _min_len(str),
    "minimum": _bound(operator.lt, "is less than the minimum of"),
    "maximum": _bound(operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "is less than or equal to the minimum of"),
    "multipleOf": _multiple_of,
    "allOf": _all_of,
    "if": _if,
    "then": None,
}

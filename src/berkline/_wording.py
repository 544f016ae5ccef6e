"""The wording of a schema rejection, as jsonschema 4.26.0 words it.

``berkline.cli``'s acceptor decides validity.  When it rejects a payload,
``detail`` walks the command's ``$defs`` entry as
``Draft202012Validator.iter_errors`` does and returns the message of the
error that ``jsonschema.exceptions.best_match`` picks.  The walk keeps
iter_errors' order (the schema's key order), each error's path relative to
the instance its walk started from, the branch errors of ``anyOf`` and
``oneOf`` as their context, and whether the instance has the type its
schema names: all that best_match's relevance rule reads.  Which keywords
exist, and whether a keyword without subschemas fails, it asks the
acceptor.  Only a rejection imports this module.
"""

# best_match's weak keywords; it has no strong ones
_WEAK = ("anyOf", "oneOf")

# the keywords without subschemas, which the acceptor's own check decides
_WORDS = {
    "type": lambda v, x: f"{x!r} is not of type "
                         + ", ".join(map(repr, [v] if isinstance(v, str) else v)),
    "const": lambda v, x: f"{v!r} was expected",
    "enum": lambda v, x: f"{x!r} is not one of {v!r}",
    "minimum": lambda v, x: f"{x!r} is less than the minimum of {v!r}",
    "pattern": lambda v, x: f"{x!r} does not match {v!r}",
    "minItems": lambda v, x: f"{x!r} " + ("should be non-empty" if v == 1
                                          else "is too short"),
    "maxItems": lambda v, x: f"{x!r} " + ("is expected to be empty" if v == 0
                                          else "is too long"),
}


def detail(acc, name, payload):
    """best_match's message for payload under ``$defs/<name>`` of the
    acceptor's document, or None where the walk finds no error."""
    errors = _walk(acc, acc._defs[name], payload, ())
    if not errors:
        return None
    # the most relevant error; then, while it has context, the least
    # relevant error of that, unless the two least relevant tie
    best = max(errors, key=_key)
    while best[2]:
        low = sorted(best[2], key=_key)[:2]
        if len(low) == 2 and low[0][0] == low[1][0]:
            break
        best = low[0]
    return best[1]


def _key(error):
    return error[0]


def _error(acc, path, keyword, x, schema, message, context=()):
    """(relevance key, message, context).  The key is best_match's: deeper,
    then later in path order, then not weak, then not of its schema's
    type, ranks higher."""
    expected = schema.get("type") if isinstance(schema, dict) else None
    typed = expected is not None and acc._kw_type(expected, schema)(x)
    return (-len(path), path, keyword not in _WEAK, not typed), message, context


def _walk(acc, schema, x, path):
    """x's errors under schema, in iter_errors' order; path is x's place
    below the instance the walk started from."""
    if schema is True:
        return []
    if schema is False:
        return [_error(acc, path, None, x, schema,
                       f"False schema does not allow {x!r}")]
    errors = []
    for key, value in schema.items():
        if key in _WORDS:
            if not acc._KEYWORDS[key](acc, value, schema)(x):
                errors.append(_error(acc, path, key, x, schema,
                                     _WORDS[key](value, x)))
        elif key in acc._KEYWORDS:
            errors += _APPLY[key](acc, value, x, path, schema)
        # any other key is an annotation: the acceptor refused the rest
        # when it compiled the document
    return errors


def _ref(acc, value, x, path, schema):
    name = value.removeprefix("#/$defs/")
    # what the acceptor accepts holds no error: the walk skips it
    return [] if acc.accepts(name, x) else _walk(acc, acc._defs[name], x, path)


def _required(acc, value, x, path, schema):
    if not isinstance(x, dict):
        return []
    return [_error(acc, path, "required", x, schema, f"{k!r} is a required property")
            for k in value if k not in x]


def _properties(acc, value, x, path, schema):
    if not isinstance(x, dict):
        return []
    return [e for k, sub in value.items() if k in x
            for e in _walk(acc, sub, x[k], path + (k,))]


def _additional(acc, value, x, path, schema):
    if not isinstance(x, dict):
        return []
    # in the instance's order; jsonschema takes them as a set, but errors
    # under different keys have different paths and never tie
    extras = [k for k in x if k not in schema.get("properties", {})]
    if value is False:
        return [_error(acc, path, "additionalProperties", x, schema,
                       "Additional properties are not allowed (%s %s unexpected)"
                       % (", ".join(map(repr, sorted(extras))),
                          "was" if len(extras) == 1 else "were"))] if extras else []
    return [e for k in extras for e in _walk(acc, value, x[k], path + (k,))]


def _items(acc, value, x, path, schema):
    if not isinstance(x, list):
        return []
    start = len(schema.get("prefixItems", ()))
    extra = len(x) - start
    if value is False and extra > 0:
        rest = x[start] if extra == 1 else x[start:]
        return [_error(acc, path, "items", x, schema,
                       f"Expected at most {start} {'item' if start == 1 else 'items'}"
                       f" but found {extra} extra: {rest!r}")]
    return [e for i in range(start, len(x))
            for e in _walk(acc, value, x[i], path + (i,))]


def _prefix_items(acc, value, x, path, schema):
    if not isinstance(x, list):
        return []
    return [e for i, (sub, item) in enumerate(zip(value, x))
            for e in _walk(acc, sub, item, path + (i,))]


def _any_of(acc, value, x, path, schema):
    # each branch is walked from x itself: its errors' paths start there
    context = []
    for sub in value:
        errors = _walk(acc, sub, x, ())
        if not errors:
            return []
        context += errors
    return [_error(acc, path, "anyOf", x, schema,
                   f"{x!r} is not valid under any of the given schemas", context)]


def _one_of(acc, value, x, path, schema):
    context = []
    for i, sub in enumerate(value):
        errors = _walk(acc, sub, x, ())
        if not errors:
            break
        context += errors
    else:
        return [_error(acc, path, "oneOf", x, schema,
                       f"{x!r} is not valid under any of the given schemas", context)]
    more = [sub for sub in value[i + 1:] if not _walk(acc, sub, x, ())]
    if not more:
        return []
    return [_error(acc, path, "oneOf", x, schema, f"{x!r} is valid under each of "
                   + ", ".join(map(repr, [*more, value[i]])))]


# the keywords with subschemas, or whose errors name the member that fails
_APPLY = {
    "$ref": _ref, "required": _required, "properties": _properties,
    "additionalProperties": _additional, "items": _items,
    "prefixItems": _prefix_items, "anyOf": _any_of, "oneOf": _one_of,
}

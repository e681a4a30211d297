{"first_stage": [0, 1, 2, 3, 6], "second_stage": [[4], [5], [5], [4]], "value": "81/4"}

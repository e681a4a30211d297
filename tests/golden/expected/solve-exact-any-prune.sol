{"first_stage": [2], "second_stage": [[0, 3, 6], [3, 5, 6], [0, 4, 5], [3, 4, 5]], "value": "123/4"}
